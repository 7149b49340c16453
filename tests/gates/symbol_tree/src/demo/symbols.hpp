// Fixture: two namespace-scope functions, one with a production caller
// (examples/consumer.cpp) and one that only its own declaration and
// definition name. no_orphan_symbols.cmake must reject this tree's archive
// (ctest no_orphan_symbols_rejects_fixture, WILL_FAIL).
#pragma once

namespace acc::demo {

int used_value();
int orphan_value();

}  // namespace acc::demo
