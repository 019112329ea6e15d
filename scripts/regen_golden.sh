#!/usr/bin/env bash
# Regenerates tests/integration/golden_runs.csv,
# tests/integration/service_golden_runs.csv and
# tests/integration/abr_golden_runs.csv from the current build.
#
# Run this ONLY when a numerical change is intentional (new scheduler logic,
# a deliberate formula fix); then review the CSV diff like code — every
# changed cell is a behavioural change some figure or claim may depend on.
#
#   scripts/regen_golden.sh            # configure + build + regenerate
#   BUILD_DIR=build-asan scripts/regen_golden.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-build}"
jobs="${JOBS:-$(nproc)}"
cd "${repo_root}"

cmake -B "${build_dir}" -S . > /dev/null
cmake --build "${build_dir}" -j "${jobs}" --target test_golden_runs test_service_golden test_abr_golden

GOLDEN_REGEN=1 "${build_dir}/tests/test_golden_runs" \
  --gtest_filter='GoldenRuns.EveryFactorySchedulerMatchesTheCheckedInDigests'
GOLDEN_REGEN=1 "${build_dir}/tests/test_service_golden" \
  --gtest_filter='ServiceGoldenRuns.EveryFactorySchedulerMatchesTheCheckedInDigests'
GOLDEN_REGEN=1 "${build_dir}/tests/test_abr_golden" \
  --gtest_filter='AbrGoldenRuns.EveryCaseMatchesTheCheckedInDigests'

git -C "${repo_root}" --no-pager diff --stat -- \
  tests/integration/golden_runs.csv tests/integration/service_golden_runs.csv \
  tests/integration/abr_golden_runs.csv || true
printf '\nRegenerated golden CSVs — review the diff before committing.\n'
