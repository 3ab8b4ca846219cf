// Planted include-guard violation: the guard does not follow the file's
// path, so two headers of the same name in different modules would share
// one guard and the second would silently vanish.
#ifndef DEGREE_H
#define DEGREE_H

namespace fixture {

unsigned Degree(unsigned vertex);

}  // namespace fixture

#endif  // DEGREE_H
