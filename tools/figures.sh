#!/usr/bin/env bash
# Regenerate the paper's figure records and compare them with the committed
# ones under docs/figures/.
#
#   tools/figures.sh
#
# Runs the twelve paper bins (fig*, ablation_*, perfmodel_validation) in
# release into a fresh target/figures/, then checks that every committed CSV
# came out byte-identical, that no bin wrote a CSV nobody committed, and that
# the Figure 19-21 PGMs match docs/figures/pgm.sha256. Every record holds
# virtual time only, so a difference means the model or an app moved: commit
# the regenerated files with the change that moved them. About 4 s once
# built. Exits 1 on the first difference.
set -euo pipefail
cd "$(dirname "$0")/.."

bins=(fig06_mergesort fig12_fft2d fig15_poisson fig16_cfd fig17_em fig18_spectral
      fig19_cfd_fields fig21_swirl_field ablation_distribution ablation_exchange
      ablation_reduction perfmodel_validation)

rm -rf target/figures
cargo build --release -q -p archetype-bench --bins
for b in "${bins[@]}"; do
  cargo run --release -q -p archetype-bench --bin "$b" > /dev/null
done

# `unit_test_curve.csv` is a crates/bench unit test's, not a figure.
if ! diff <(cd docs/figures && ls -- *.csv) \
          <(cd target/figures && ls -- *.csv | grep -vx unit_test_curve.csv); then
  echo "the set of figure CSVs differs from docs/figures/" >&2
  exit 1
fi
for f in docs/figures/*.csv; do
  if ! diff "$f" "target/figures/$(basename "$f")"; then
    echo "$(basename "$f") differs from the committed record" >&2
    exit 1
  fi
done
(cd target/figures && sha256sum --quiet -c ../../docs/figures/pgm.sha256)
echo "figure records: 12 CSVs and 5 PGMs identical"
