// Calls used_value only; orphan_value, named in this comment, still has
// no caller.
#include "demo/symbols.hpp"

int main() { return acc::demo::used_value() - 1; }
