#include "demo/symbols.hpp"

int main() { return acc::demo::used_value() - 1; }
