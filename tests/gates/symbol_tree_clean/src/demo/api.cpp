#include "demo/api.hpp"

namespace acc::demo {

int scale(int v) { return 2 * v + detail::offset(); }
double scale(double v) { return 2 * v; }

int Counter::next() { return ++value; }

namespace detail {
int offset() { return 1; }
}  // namespace detail

}  // namespace acc::demo
