// Fixture: a header that only its own .cpp includes. no_orphans.cmake must
// reject this tree (ctest no_orphans_rejects_fixture, WILL_FAIL).
#pragma once

int orphan_value();
