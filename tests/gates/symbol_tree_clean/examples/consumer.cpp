#include "demo/api.hpp"

int main() { return acc::demo::scale(1) + static_cast<int>(acc::demo::scale(0.5)); }
