#!/usr/bin/env bash
# Run the acceptance criteria c1-c9 (tests/test_acceptance.py) at another seed.
#
#   tools/acceptance_at_seed.sh SEED [PYTEST_ARGS...]
#
# Copies src/, tests/, scenarios/, docs/ and pyproject.toml of this checkout
# into a temporary directory, sets "seed" to SEED in the three shipped
# scenarios there (lshl, hsll, cyber_event), and runs the acceptance tests in
# that copy from its own sources.  The checkout is left untouched.  Exits with
# pytest's exit code, or 2 on a bad SEED.
set -euo pipefail

if [ "$#" -lt 1 ] || ! [[ "$1" =~ ^[0-9]+$ ]]; then
    echo "usage: $0 SEED [PYTEST_ARGS...]" >&2
    exit 2
fi
seed=$1
shift

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp -r "$root/src" "$root/tests" "$root/scenarios" "$root/docs" "$root/pyproject.toml" "$work/"

for sc in lshl hsll cyber_event; do
    # rewrite only the top-level "seed" value, keeping the file's layout
    python - "$work/scenarios/$sc.json" "$seed" <<'EOF'
import re
import sys

path, seed = sys.argv[1], sys.argv[2]
text = open(path).read()
new, count = re.subn(r'^(  "seed": )\d+', rf"\g<1>{seed}", text, flags=re.M)
if count != 1:
    sys.exit(f"{path}: expected one top-level seed field, found {count}")
open(path, "w").write(new)
EOF
done

cd "$work"
PYTHONPATH="$work/src" OMP_NUM_THREADS=1 python -m pytest -q -p no:cacheprovider \
    tests/test_acceptance.py "$@"
