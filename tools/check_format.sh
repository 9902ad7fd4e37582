#!/usr/bin/env bash
# Formatting gate (config: .clang-format).
#
# Usage: tools/check_format.sh          # check only, non-zero on violations
#        tools/check_format.sh --fix    # rewrite files in place
#
# Like tools/run_lint.sh, the gate degrades gracefully when clang-format is
# not installed (prints a notice, exits 0); the CI lint job enforces it.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mode="check"
if [[ "${1:-}" == "--fix" ]]; then
  mode="fix"
fi

if ! command -v clang-format > /dev/null 2>&1; then
  echo "check_format.sh: clang-format not found on PATH; skipping (CI enforces this gate)."
  exit 0
fi

cd "${repo_root}"
mapfile -t sources < <(git ls-files \
  'src/**/*.cc' 'src/**/*.h' 'tools/*.cc' 'tools/*.h' 'tests/*.cc' \
  'tests/*.h' 'bench/*.cc' 'bench/*.h' 'examples/*.cpp')

echo "check_format.sh: ${mode} over ${#sources[@]} files ($(clang-format --version | xargs))"

if [[ "${mode}" == "fix" ]]; then
  printf '%s\0' "${sources[@]}" | xargs -0 clang-format -i
  echo "check_format.sh: formatted in place"
  exit 0
fi

if ! printf '%s\0' "${sources[@]}" |
  xargs -0 clang-format --dry-run --Werror; then
  echo "check_format.sh: FAILED — run tools/check_format.sh --fix" >&2
  exit 1
fi
echo "check_format.sh: OK"
