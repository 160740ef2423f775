#!/usr/bin/env bash
# Merges result files of `benchmark/run.sh -out` into one that
# `benchmark/run.sh -compare` reads: every workload's attempted, failed
# and recall arrays and every metric's values are concatenated in
# argument order, and the first file's header is kept. Files whose
# header seed, sizes or input digests differ are refused: their runs
# measured different inputs.
#
#   bash scripts/bench-merge.sh side-1.json side-2.json ... > side.json
set -euo pipefail
if [ $# -lt 1 ]; then
	echo "usage: bash scripts/bench-merge.sh result.json... > merged.json" >&2
	exit 2
fi
exec jq -s '
	if (map(.header | [.seed, .sizes, .input_sha256]) | unique | length) > 1 then
		error("result files differ in header seed, sizes or input digests")
	else . end
	| reduce .[1:][] as $r (.[0];
		reduce ($r.workloads | to_entries[]) as $w (.;
			if .workloads[$w.key] == null then .workloads[$w.key] = $w.value
			else .workloads[$w.key] |= (
				.attempted += $w.value.attempted
				| .failed += $w.value.failed
				| .recall += $w.value.recall
				| reduce ("end_to_end", "per_layer") as $k (.;
					reduce ($w.value[$k] // {} | to_entries[]) as $m (.;
						.[$k][$m.key].unit = $m.value.unit
						| .[$k][$m.key].values += $m.value.values)))
			end))' "$@"
