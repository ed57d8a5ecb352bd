// Checkpoint/resume for the streaming generation runtime.
//
// A StreamCheckpoint captures, at a slice boundary W, everything a future
// process needs to continue the stream as if it had never died:
//
//   * per-shard generator snapshots (gen::UeGenSnapshot — RNG, machine
//     configuration, armed timers) taken by each shard worker *before*
//     generating slice W, plus the carry events belonging to slice W;
//   * the delivered-through watermark: every slice < W has been fully
//     handed to the sink;
//   * the sink's own resume token (CheckpointParticipant::checkpoint_save,
//     e.g. a flushed byte offset for CsvSink), captured on the consumer
//     thread after slice W-1 was delivered and before slice W is;
//   * a run fingerprint (seed, population, window, shard count, slice
//     length) — resuming under a different configuration would desynchronize
//     the slice-indexed watermarks, so load validation rejects it.
//
// Invariants (see DESIGN.md "Failure semantics & recovery"):
//   1. The file is written with the atomic write-tmp-then-rename pattern; a
//      crash mid-write leaves the previous checkpoint intact.
//   2. A checkpoint is written only after its sink token is durable, so
//      resume never skips events the sink does not actually have.
//   3. Generator snapshots are exact: an uninterrupted run and a
//      killed-and-resumed run deliver byte-identical streams.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.h"
#include "generator/ue_generator.h"

namespace cpg::stream {

// Checkpointing knobs inside StreamOptions. `dir` empty = disabled.
struct CheckpointOptions {
  std::string dir;
  // A checkpoint is taken at every slice index divisible by this (the
  // snapshot cost is proportional to live UEs, so very small intervals tax
  // throughput). Must be >= 1.
  std::uint64_t interval_slices = 16;
};

// One shard's resumable state at a slice boundary.
struct ShardCheckpoint {
  std::vector<gen::UeGenSnapshot> gens;  // live (not done) generators only
  // Plan segment index each live generator was activated from, parallel to
  // `gens` (stream/population.h; a stationary run's trivial plan has one
  // segment per UE, so there it equals the UE id). `gens` lists generators
  // activation slice by activation slice, each slice's in
  // (device, modeled_ue, ue_id, segment) order
  // (generator/trajectory_order.h).
  std::vector<std::uint64_t> gen_seg;
  // Shard-local activation cursor: how many of this shard's plan segments
  // (in plan order) have already been activated. A resumed worker re-enters
  // the slice loop with the remaining segments still pending.
  std::uint64_t next_seg = 0;
  std::vector<ControlEvent> carry;  // boundary events of the next slice
};

struct StreamCheckpoint {
  // --- run fingerprint ---------------------------------------------------
  std::uint64_t seed = 0;
  std::array<std::size_t, k_num_device_types> ue_counts{};
  TimeMs t_begin = 0;
  TimeMs t_end = 0;
  std::size_t num_shards = 0;
  TimeMs slice_ms = 0;
  // Fingerprint of the compiled scenario (0 for a stationary run). Resuming
  // under an edited scenario spec would replay a different plan against
  // slice-indexed state, so load validation rejects a mismatch.
  std::uint64_t scenario_fingerprint = 0;
  // Fingerprint of the spatial config (src/spatial/; 0 = no spatial layer).
  // Cell assignment is a pure function of the config, so resuming under a
  // different grid/placement/mobility would splice two incompatible cell
  // streams into one file; load validation rejects a mismatch.
  std::uint64_t spatial_fingerprint = 0;
  // --- progress ----------------------------------------------------------
  std::uint64_t resume_slice = 0;  // first slice not yet delivered
  std::string sink_token;          // opaque; empty = sink not participating
  std::vector<ShardCheckpoint> shards;  // size == num_shards
};

// Path of the (single, latest) checkpoint file inside `dir`.
std::string checkpoint_path(const std::string& dir);

// Atomically replaces the checkpoint file in `dir` (write `.tmp`, rename).
// Creates `dir` if missing. Throws std::runtime_error on I/O failure.
void save_checkpoint(const StreamCheckpoint& ck, const std::string& dir);

// Loads the checkpoint from `dir`. Returns nullopt when no checkpoint file
// exists (a resume request then starts from scratch); throws
// std::runtime_error naming the offending section on a corrupt file, with a
// one-line actionable message — an unknown (newer) format version or a
// truncated header is always a clean error, never a crash or a silent
// fresh start.
std::optional<StreamCheckpoint> load_checkpoint(const std::string& dir);

// Stream-level (de)serialization of the checkpoint format: write_checkpoint
// emits exactly the bytes save_checkpoint persists, read_checkpoint is the
// parser behind load_checkpoint (same errors, minus the path context). The
// distributed runtime uses these to ship rank checkpoints through the rank
// transport instead of the filesystem.
void write_checkpoint(std::ostream& os, const StreamCheckpoint& ck);
StreamCheckpoint read_checkpoint(std::istream& is);

}  // namespace cpg::stream
