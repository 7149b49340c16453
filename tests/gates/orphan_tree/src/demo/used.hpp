// Fixture: a header with a production caller (examples/consumer.cpp).
#pragma once

inline int used_value() { return 1; }
