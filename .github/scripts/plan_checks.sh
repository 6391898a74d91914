#!/usr/bin/env bash
# Plan checks through the installed console script, written to OUT_DIR:
# - generate a hub fleet, solve it with both heuristics and check each plan;
# - solve it with both exact models, compare their LP dumps with pinned
#   digests, and require the two plans to check alike.
# The digests are those of the dumps written when every column was added
# under its own tuple key, so a change in how a column's label is derived
# changes them.  LP text is formatted by Python, not numpy, so every
# supported numpy and scipy writes the same dumps.
#
# Usage: plan_checks.sh OUT_DIR
set -euo pipefail
out=${1:?usage: plan_checks.sh OUT_DIR}

platoonplan gen --grid 6x6 --vehicles 20 --seed 3 --od-mode hub --hubs 0,35 -o "$out/instance.txt"
for method in iheur pairwise; do
  platoonplan solve "$out/instance.txt" --method "$method" --solution "$out/$method.json"
  platoonplan check "$out/instance.txt" "$out/$method.json"
done

for method in cpf tsf; do
  platoonplan solve "$out/instance.txt" --method "$method" --dump-model "$out/$method.lp" --solution "$out/$method.json"
done
sha256sum -c - <<DIGESTS
765db0ddc833f8fb232de0765fdc36ce40d68bc4c438f5b8451e2ea1e1106f72  $out/cpf.lp
5264ca97af5ed33c21057e8489575ccafa353c7e1c7c8399eb8b74ed189824ce  $out/tsf.lp
DIGESTS
for method in cpf tsf; do
  platoonplan check "$out/instance.txt" "$out/$method.json" > "$out/$method-check.txt"
done
cat "$out/cpf-check.txt" "$out/tsf-check.txt"
diff "$out/cpf-check.txt" "$out/tsf-check.txt"
