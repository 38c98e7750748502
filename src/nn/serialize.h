// Network files: persist a (possibly pruned) network — topology,
// hyper-parameters and weights — and load it back bit-exactly. Lets a
// measurement campaign cache its variants instead of re-pruning from
// scratch.
//
// A network file is a snapshot container (common/snapshot.h) with app tag
// 'CCPF' and two sections:
//   model   — FormatModel(net) (nn/model_parser.h), stored as text under a
//             u64 length: the topology, every hyper-parameter and each
//             layer's int8 opt-in;
//   weights — for each weighted layer in topological order, its weight
//             floats then its bias floats, each a u64 count and the raw
//             IEEE-754 bits.
// Loading parses the model text with ParseModel, so a layer kind and its
// hyper-parameters are encoded in one place, and ParseModel's bounds (each
// extent <= 1e9, each conv/fc weight tensor <= 1e9 elements) guard a load.
// The container's per-section CRC-32 turns any flipped byte or truncation
// into a CheckError.
//
// What a network file inherits from the container: at most 2^28 floats per
// weight or bias tensor and 2^31 bytes per section, so all of a network's
// weights together stay under 2 GiB. The network name and every layer name
// must be a model-text token (non-empty; no whitespace, '#', '=' or ','; a
// layer may not be called "input"). A network whose names or tensors
// break these rules fails at save, not at load.
//
// Files written by the earlier stand-alone 'CCPF' stream format (magic
// "CCPF" at offset 0) no longer load: they fail the container's magic check.
#pragma once

#include <string>

#include "nn/network.h"

namespace ccperf::nn {

/// The network file bytes of `net`. Throws CheckError on a network the
/// format cannot hold (see above).
[[nodiscard]] std::string SaveNetwork(const Network& net);

/// Write the network file atomically (WriteSnapshotFileAtomic): a crash
/// mid-save leaves the previous file, never a torn one.
void SaveNetworkToFile(const Network& net, const std::string& path);

/// Rebuild a network from network file bytes. Weighted layers come back
/// with their cached sparse state rebuilt. Throws CheckError on any
/// corruption.
[[nodiscard]] Network LoadNetwork(const std::string& bytes);

/// Load from a file path; errors name the path.
[[nodiscard]] Network LoadNetworkFromFile(const std::string& path);

}  // namespace ccperf::nn
