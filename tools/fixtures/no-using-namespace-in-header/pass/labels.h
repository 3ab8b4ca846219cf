// The header names std types in full; a using-declaration of one name or a
// type alias imports nothing else.
#ifndef RICD_LABELS_H_
#define RICD_LABELS_H_

#include <string>
#include <vector>

namespace fixture {

using std::string;
using LabelList = std::vector<string>;

LabelList LabelNames();

}  // namespace fixture

#endif  // RICD_LABELS_H_
