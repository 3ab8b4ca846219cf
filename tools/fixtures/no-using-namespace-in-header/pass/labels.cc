// A source file may open a namespace for itself: no other file includes it.
#include "labels.h"

using namespace std;

namespace fixture {

LabelList LabelNames() { return {string("user"), string("item")}; }

}  // namespace fixture
