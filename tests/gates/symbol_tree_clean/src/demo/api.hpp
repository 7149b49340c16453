// Fixture: every namespace-scope function has a production caller
// (examples/consumer.cpp), two of them as overloads of one name, and a
// member function has none, which is out of the gate's scope.
// no_orphan_symbols.cmake must accept this tree's archive (ctest
// no_orphan_symbols_accepts_fixture).
#pragma once

namespace acc::demo {

int scale(int v);
double scale(double v);

struct Counter {
  int next();
  int value = 0;
};

namespace detail {
int offset();
}  // namespace detail

}  // namespace acc::demo
