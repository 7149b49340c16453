#include "demo/used.hpp"

int main() { return used_value() - 1; }
