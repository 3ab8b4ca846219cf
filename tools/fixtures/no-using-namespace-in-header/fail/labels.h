// Planted no-using-namespace-in-header violation: every file that includes
// this header inherits all of std, and a later std name can collide with a
// project one.
#ifndef RICD_LABELS_H_
#define RICD_LABELS_H_

#include <string>
#include <vector>

using namespace std;

namespace fixture {

vector<string> LabelNames();

}  // namespace fixture

#endif  // RICD_LABELS_H_
