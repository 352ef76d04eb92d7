#!/bin/sh
# Runs `opmr_cli run` as two OS processes: the CLI forks a map worker group
# that dials the parent's reduce group over a localhost socket.  Passes when
# the job exits 0 and the parent's report shows shuffle frames received.
#
#   usage: cli_two_process.sh <path/to/opmr_cli> <tcp|epoll>
set -u
out=$("$1" run workload=per_user_count runtime=hash records=20000 \
      --transport="$2" --shuffle-timeout=10 2>&1)
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq 0 ] || exit "$rc"
printf '%s\n' "$out" | grep -Eq '^net frames received +[1-9]'
