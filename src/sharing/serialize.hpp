// JSON (de)serialization of shared-system specifications — experiment
// configurations as data, consumed by the accshare_analyze CLI. acc-lint's
// configurations (examples/configs/*.json) extend the same format.
//
// Format:
// {
//   "chain": {"accelerators": [1, 1], "entry": 15, "exit": 1,
//             "ni_capacity": 2},
//   "streams": [{"name": "s0", "mu_num": 441, "mu_den": 1000000,
//                "reconfig": 4100}, ...]
// }
#pragma once

#include <string>

#include "common/json.hpp"
#include "sharing/spec.hpp"

namespace acc::sharing {

[[nodiscard]] json::Value spec_to_json(const SharedSystemSpec& sys);

/// Rebuild and validate; throws acc::precondition_error on malformed input.
[[nodiscard]] SharedSystemSpec spec_from_json(const json::Value& v);

[[nodiscard]] std::string spec_to_string(const SharedSystemSpec& sys);
[[nodiscard]] SharedSystemSpec spec_from_string(const std::string& text);

}  // namespace acc::sharing
