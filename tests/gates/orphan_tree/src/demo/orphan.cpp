#include "demo/orphan.hpp"

int orphan_value() { return 2; }
