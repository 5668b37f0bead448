#!/usr/bin/env bash
# Run one command line and check its exit status and output. The CLI
# flag tests in tools/CMakeLists.txt drive the real patchdb binary
# through it.
#
#   tools/cli_expect.sh STATUS REGEX COMMAND [ARGS...]
#
# Fails unless COMMAND exits with STATUS and its combined stdout and
# stderr match the extended regular expression REGEX.
set -uo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: cli_expect.sh STATUS REGEX COMMAND [ARGS...]" >&2
  exit 2
fi
want_status="$1"
regex="$2"
shift 2

output="$("$@" 2>&1)"
status=$?
if [[ "${status}" != "${want_status}" ]]; then
  echo "cli_expect.sh: exit ${status}, want ${want_status}: $*" >&2
  echo "${output}" >&2
  exit 1
fi
if ! grep -Eq -- "${regex}" <<< "${output}"; then
  echo "cli_expect.sh: output does not match /${regex}/: $*" >&2
  echo "${output}" >&2
  exit 1
fi
