#pragma once
// Synchronous execution of one serving request against operand caches: the
// per-request body DevicePool runs on its workers, and the building block
// for cache-only serving without an engine (benches' reference loops, the
// traced direct-call comparison).

#include "serve/operand_cache.hpp"
#include "serve/request.hpp"
#include "simt/device_spec.hpp"

namespace magicube::serve {

/// Executes one request synchronously against `cache` (operands and plans
/// in one cache). Throws on malformed requests. Costs the run on
/// simt::a100().
Response serve_request(const Request& req, OperandCache& cache);

/// Split-cache variant used by the multi-device pool: operands are prepared
/// in `operands` (a device's own cache budget) while execution plans live
/// in `plans` (shared across devices — plans are pattern-only, so every
/// device replays one build), and modeled_seconds is priced on `device`.
/// serve_request(req, cache) == serve_request(req, cache, cache, a100()).
Response serve_request(const Request& req, OperandCache& operands,
                       OperandCache& plans, const simt::DeviceSpec& device);

}  // namespace magicube::serve
