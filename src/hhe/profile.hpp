// Instrumented dry runs of the transcipher servers, producing the
// CircuitProfiles the parameter search replays (fhe/param_search.hpp).
//
// Each recorder builds a throwaway Bgv under the given config (the
// checked-in one: the search's fixed point), turns on
// Bgv::begin_recording, runs the real server code path end to end, and
// packages the tape, the output node ids and the ExecContext counter
// delta. The tape is parameter-independent — replaying it under candidate
// BgvParams is how search_params right-sizes the chain. It is reproducible
// as a DAG but not in node order: rows evaluated in parallel_for append in
// thread arrival order, so above one thread two recordings number the
// nodes differently (the search result is the same).
#pragma once

#include "fhe/param_search.hpp"
#include "hhe/protocol.hpp"

namespace poe::hhe {

/// Coefficient-wise server: encrypt_key + one full transcipher_block
/// (keystream circuit, negate, symmetric add). Outputs = the t message
/// ciphertexts handed back to the client.
fhe::CircuitProfile record_coefficient_profile(const HheConfig& config);

/// Packed SIMD engine at full capacity, in its worst-case serving shape:
/// cross-tenant key merge (mask multiply + add), evaluate over a
/// completely filled batch, then masked tile extraction. Outputs = the
/// extracted per-tenant ciphertexts. The engine's circuit does not depend
/// on occupancy, so this profile covers every batch the service forms.
fhe::CircuitProfile record_batched_profile(const HheConfig& config);

}  // namespace poe::hhe
