// The guard spells the path with the leading src/ stripped:
// src/graph/degree.h -> RICD_GRAPH_DEGREE_H_.
#ifndef RICD_GRAPH_DEGREE_H_
#define RICD_GRAPH_DEGREE_H_

namespace fixture {

unsigned Degree(unsigned vertex);

}  // namespace fixture

#endif  // RICD_GRAPH_DEGREE_H_
