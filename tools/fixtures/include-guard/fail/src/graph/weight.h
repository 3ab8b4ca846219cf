// Planted include-guard violation: #pragma once instead of the named guard.
#pragma once

namespace fixture {

unsigned Weight(unsigned edge);

}  // namespace fixture
