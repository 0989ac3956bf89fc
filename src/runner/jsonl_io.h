// Read-back of sweep JSONL campaigns.
//
// A sweep writes one runner::to_json record per job; this module reads
// those files back into the JobResults that wrote them (runner::
// from_json) so downstream consumers (the explain subsystem, ad-hoc
// analysis) can work from a finished campaign file instead of re-running
// it, and recombines the files of a sharded campaign.
#pragma once

#include <string>
#include <vector>

#include "runner/sweep_runner.h"

namespace metaopt::runner {

/// Reads every record of a sweep JSONL file through from_json. Throws
/// std::runtime_error naming the file and line on an unreadable file or
/// malformed record; records missing fields get that field's default.
std::vector<JobResult> read_sweep_jsonl(const std::string& path);

/// Recombines per-shard sweep JSONL files into one campaign document:
/// raw record lines, stable-sorted by job id, newline-terminated —
/// byte-identical to the unsharded run's SweepReport::jsonl() because
/// shards never re-serialize (lines are moved, not parsed-and-printed;
/// parsing happens only to extract the id). Throws std::runtime_error on
/// an unreadable file, a malformed line, a record without a "job" id, or
/// a job id appearing in more than one shard (overlapping shards would
/// silently double-count).
std::string merge_shard_jsonl(const std::vector<std::string>& paths);

}  // namespace metaopt::runner
