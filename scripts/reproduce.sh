#!/usr/bin/env bash
# Reproduce the headline numbers: every job in jobs/ is one CLI invocation.
# Reports (JSON with the tool version and the fully resolved job embedded)
# land in reports/ by default; pass a different directory as $1.  Each report
# is compared byte for byte with tests/golden/<name>.json; the script names
# every report that differs and exits 1 if any does.
set -euo pipefail
cd "$(dirname "$0")/.."
# Run from the checkout's src/ so no install is needed.
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

out="${1:-reports}"
mkdir -p "$out"

mismatched=()
for job in jobs/*.json; do
    name="$(basename "$job" .json)"
    echo "== ${name}"
    python3 -m growthtight run "$job" --out "${out}/${name}.json" --csv "${out}/${name}.csv"
    echo
    if ! cmp -s "${out}/${name}.json" "tests/golden/${name}.json"; then
        mismatched+=("$name")
    fi
done

echo "reports written to ${out}/"
if (( ${#mismatched[@]} )); then
    for name in "${mismatched[@]}"; do
        echo "MISMATCH: ${out}/${name}.json differs from tests/golden/${name}.json" >&2
    done
    exit 1
fi
echo "all reports match tests/golden/"
echo "assertion-level gate: PYTHONPATH=src\${PYTHONPATH:+:\$PYTHONPATH} python3 -m pytest tests/test_acceptance.py -v"
