// Crash-safe file publication: write to "<path>.tmp.<pid>.<n>" in the
// same directory, then rename over the target. A reader (including a
// resumed run after a crash or SIGKILL) therefore sees either the previous
// complete file or the new complete file — never a truncated one. The
// writer-unique staging name keeps concurrent publishers (fleet siblings
// emitting the same artifact, worker threads saving at once) from clobbering
// each other's temp files. Used by ResultSink artifacts and checkpoint
// shards.
//
// Cross-process semantics (docs/fleet.md). Both primitives here are the
// POSIX atoms the multi-process shard queue is built from, so their
// contracts are load-bearing across *processes*, not just threads:
//  * atomic_write_file renames OVER an existing target. rename(2) replaces
//    the destination atomically, so when two processes publish the same
//    path concurrently, readers see one complete payload or the other,
//    never a mix — last writer wins. Idempotent re-publication (two fleet
//    workers computing the same shard from the same seeds) is therefore
//    harmless by construction. Pinned by tests/test_checkpoint.cpp.
//  * atomic_create_file is the opposite discipline: O_CREAT|O_EXCL fails
//    if the path already exists, and exactly one of N racing creators
//    wins. That exclusive-create is what makes a shard *claim* atomic.
#pragma once

#include <filesystem>
#include <string>

namespace sudoku::exp {

enum class FileDurability {
  // fsync the data before the rename and the directory after: the
  // publication survives power loss. Two fsyncs per file — right for
  // final artifacts, too slow for per-shard checkpoints.
  kFull,
  // Atomic against process crashes (rename only, no fsync). After power
  // loss the file may be empty or torn; callers must treat unreadable
  // content as "absent" (checkpoint decode already does — a torn shard
  // is recomputed, so the weaker mode costs correctness nothing).
  kProcessCrashOnly,
};

// Throws std::runtime_error (with the path in the message) when the
// temporary cannot be created/written or the rename fails. The POSIX path
// honours `durability`; the portable fallback is always process-crash-only.
void atomic_write_file(const std::filesystem::path& path,
                       const std::string& contents,
                       FileDurability durability = FileDurability::kFull);

// Exclusive create: atomically create `path` with `contents` if and only
// if no file exists there yet. Returns true when this call created the
// file, false when the path already existed (someone else holds it).
// Unlike atomic_write_file there is no temp+rename — O_EXCL itself is the
// atom — so the contents are advisory (a reader racing the create may see
// them partially written); the claim protocol stores only diagnostics
// there. Throws std::runtime_error on any error other than "exists"
// (missing directory, permissions). The portable fallback approximates
// O_EXCL with create-if-absent semantics that are atomic on POSIX only.
bool atomic_create_file(const std::filesystem::path& path,
                        const std::string& contents);

}  // namespace sudoku::exp
