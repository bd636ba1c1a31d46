#!/usr/bin/env sh
# Lint: the query and core layers must reach NoK pages through the execution
# layer (src/exec), never through the raw scan primitives. The exec layer is
# where fetch, DOL decode, ACCESS check, dead-page skip and readahead hints
# are fused — a direct call site bypasses the ExecStats
# accounting and reintroduces the per-caller access-check copies this layer
# removed.
#
# One decoder: a page's embedded DOL transition list is read only by
# PageCodes / PageCodeWalker (src/nok/nok_format.h), which validate it
# before resolving any code. TransitionOffset and ReadAt<DolTransition> are
# forbidden everywhere in src/ outside src/nok, so no layer can walk the
# raw list again (an unvalidated walk of a corrupt, unsorted list returns a
# plausible wrong code).
#
# Whitelisted direct uses (legitimately outside the scan path):
#   - src/core/secure_store.cc: PageTransitions on the UPDATE/extract paths
#     (SetRangeAccess page rewrite, CompactCodebook remap, ExtractLabeling);
#   - src/core/secure_store.{h,cc}: Codebook::Accessible for the point-probe
#     oracle SecureStore::Accessible, the header-only first_code
#     classification feeding ClassifyPage (SecureStore::PageWholly*), and
#     the column-cache extension at commit;
#   - src/core/dol_labeling.h: the labeling's own definition of node
#     accessibility (the oracle LabelStreamCursor is tested against).
#
# Run from the repo root; exits nonzero listing any violation.

set -u
cd "$(dirname "$0")/.."

# report runs as the tail of a pipeline, i.e. in a subshell in POSIX sh —
# a plain `fail=1` there would be lost. Failures land in a marker file.
fail_marker="${TMPDIR:-/tmp}/check_no_direct_fetch.$$"
rm -f "$fail_marker"
trap 'rm -f "$fail_marker"' EXIT

report() {
  # $1 = description, stdin = offending grep lines (possibly empty)
  lines=$(cat)
  if [ -n "$lines" ]; then
    echo "DIRECT ACCESS VIOLATION: $1" >&2
    echo "$lines" >&2
    : > "$fail_marker"
  fi
}

# Raw scan primitives: forbidden everywhere in query/ and core/. These are
# the calls SecureCursor/MultiSubjectCursor/PageSweep own.
grep -rn "RecordAndCode\|FirstAtDepthInPage\|buffer_pool()->Fetch\|buffer_pool_\.Fetch" \
    src/query src/core --include='*.cc' --include='*.h' \
  | report "scan primitive outside src/exec (use SecureCursor/PageSweep)"

# Per-node access checks in the query layer: must go through the cursor
# (SecureCursor per subject, MultiSubjectCursor for batches).
grep -rn "Codebook::Accessible\|codebook()\.Accessible\|codebook_\.Accessible\|->Accessible(" \
    src/query --include='*.cc' --include='*.h' \
  | report "direct access check in src/query (use SecureCursor)"

# Codebook column extraction in the query layer: the batch path's word-wide
# checks are MultiSubjectCursor's (it transposes the columns in Attach);
# grouping goes through core's GroupSubjectsByColumn. A direct Column()
# probe in src/query would be a per-caller copy of that machinery.
grep -rn "Codebook::Column\|codebook()\.Column\|codebook_\.Column\|->Column(\|\.Column(" \
    src/query --include='*.cc' --include='*.h' \
  | report "direct codebook column extraction in src/query (use MultiSubjectCursor / GroupSubjectsByColumn)"

# Page transition walks in the query layer: the cursors own the decode.
grep -rn "PageTransitions" src/query --include='*.cc' --include='*.h' \
  | report "direct DOL transition walk in src/query (use SecureCursor / MultiSubjectCursor)"

# In core/, PageTransitions is only legitimate on secure_store.cc's update
# and extraction paths; everything else must use PageCodes/PageCodeWalker.
grep -rn "PageTransitions" src/core --include='*.cc' --include='*.h' \
  | grep -v '^src/core/secure_store\.cc:' \
  | report "DOL transition walk in src/core outside the update paths"

# Raw reads of the transition list outside src/nok: PageCodes (and
# PageCodeWalker over it) is the one decoder.
grep -rn "TransitionOffset(\|ReadAt<DolTransition>" src --include='*.cc' --include='*.h' \
  | grep -v '^src/nok/' \
  | report "raw DOL transition read outside src/nok (use PageCodes / PageCodeWalker)"

# Codebook probes in core/ outside the whitelisted definitional sites.
grep -rn "codebook_\.Accessible\|codebook()\.Accessible" \
    src/core --include='*.cc' --include='*.h' \
  | grep -v '^src/core/secure_store\.\(h\|cc\):' \
  | grep -v '^src/core/dol_labeling\.h:' \
  | report "codebook probe in src/core outside whitelisted oracle sites"

# Raw mask arithmetic: class masks are WideClassMask (src/exec/mask_ops.h)
# and their bulk operations are the dispatched MaskKernels. A hand-rolled
# uint64_t shift/AND over class bits in the query or exec layer would
# silently truncate batches back to 64 classes and bypass the SIMD tiers'
# bit-identity guarantee, so mask word-twiddling has exactly one home.
grep -rn "1ULL <<\|1ull <<\|~0ULL\|~0ull\|uint64_t mask\|mask & (1\|ClassMask = uint64_t" \
    src/query src/exec --include='*.cc' --include='*.h' \
  | grep -v '^src/exec/mask_ops\.h:' \
  | report "raw uint64_t mask arithmetic outside src/exec/mask_ops.h (use WideClassMask / MaskKernels)"

# Cache encapsulation: the cross-request ResultCache/PlanCache (src/cache)
# may be named only by the layers that own a traffic stream — src/query
# (EvaluateWithCaches/BatchEvaluator) and src/serve (ShardCoordinator).
# A lower layer probing the result cache would bypass the epoch validation
# and single-flight protocol those call sites carry (and core must stay
# payload-agnostic: its commit hooks are plain std::function callbacks).
grep -rn "ResultCache\|PlanCache" \
    src/common src/storage src/xml src/core src/nok src/baseline src/exec \
    src/workload --include='*.cc' --include='*.h' \
  | grep -v ':[0-9]*:[[:space:]]*//' \
  | report "ResultCache/PlanCache referenced outside src/query and src/serve (probe through EvaluateWithCaches / the coordinator)"

fail=0
[ -e "$fail_marker" ] && fail=1
if [ "$fail" -eq 0 ]; then
  echo "check_no_direct_fetch: OK (query/core layers go through src/exec)"
fi
exit "$fail"
