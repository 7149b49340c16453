#include "demo/symbols.hpp"

namespace acc::demo {

int used_value() { return 1; }
int orphan_value() { return 2; }

}  // namespace acc::demo
