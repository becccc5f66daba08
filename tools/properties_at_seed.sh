#!/usr/bin/env bash
# Check the feeder properties (tests/test_properties.py) on N seeded feeders.
#
#   tools/properties_at_seed.sh N [SEED] [PYTEST_ARGS...]
#
# The feeders are 14-bus copies of cyber_event with seeds SEED (default 1)
# to SEED + N - 1, the first half with balanced phases and the rest
# unbalanced.  The properties run from this checkout's sources, which are
# left untouched.  Exits with pytest's exit code, or 2 on a bad N or SEED.
set -euo pipefail

if [ "$#" -lt 1 ] || ! [[ "$1" =~ ^[0-9]+$ ]] || [ "$1" -eq 0 ]; then
    echo "usage: $0 N [SEED] [PYTEST_ARGS...]" >&2
    exit 2
fi
count=$1
shift
seed=1
if [ "$#" -ge 1 ] && [[ "$1" =~ ^[0-9]+$ ]]; then
    seed=$1
    shift
fi

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
GRIDRES_PROPERTY_FEEDERS=$count GRIDRES_PROPERTY_SEED=$seed PYTHONPATH="$root/src" \
    OMP_NUM_THREADS=1 python -m pytest -q -p no:cacheprovider tests/test_properties.py "$@"
