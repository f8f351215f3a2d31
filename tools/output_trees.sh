#!/usr/bin/env bash
# Write the output trees of every avlab subcommand under OUT, for a
# byte-identity check between two checkouts:
#
#     tools/output_trees.sh /tmp/before     # in one checkout
#     tools/output_trees.sh /tmp/after      # in the other
#     diff -r /tmp/before /tmp/after
#
# Runs with this checkout's src/ on PYTHONPATH, on two configs: tiny/ is
# TINY_CONFIG from tests/test_cli.py, default/ the default RunConfig with
# epochs=1, train_data.n=24 and eval_data.n=8.  Each command's stdout is
# kept in <name>.stdout, with OUT replaced by the text "OUT".
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 1
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
export PYTHONPATH="$ROOT/src"

# run NAME ARGS...: run `avlab ARGS...`, keep its stdout as NAME.stdout
run() {
    local name=$1 stdout
    shift
    stdout=$(python3 -m avlab.cli "$@")
    printf '%s\n' "${stdout//"$OUT"/OUT}" > "$OUT/$name.stdout"
}

# config.json per config, config_long.json with eval windows half as long
# again as the stored clips (so every stored video is padded), and a
# fixed replace spec
python3 - "$ROOT/tests/test_cli.py" "$OUT" <<'PY'
import ast, json, sys
from dataclasses import asdict
from pathlib import Path

from avlab.avdata import SynthConfig

test_file, out = sys.argv[1], Path(sys.argv[2])
tiny = next(
    ast.literal_eval(node.value)
    for node in ast.parse(Path(test_file).read_text()).body
    if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TINY_CONFIG"
)
configs = {"tiny": tiny, "default": {"epochs": 1, "train_data": {"n": 24}, "eval_data": {"n": 8}}}
for name, cfg in configs.items():
    synth = {**asdict(SynthConfig()), **cfg.get("synth", {})}
    synth.update(t_v=synth["t_v"] * 3 // 2, t_a=synth["t_a"] * 3 // 2)
    (out / name).mkdir(exist_ok=True)
    (out / name / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    (out / name / "config_long.json").write_text(json.dumps({**cfg, "synth": synth}, indent=2, sort_keys=True) + "\n")
(out / "replace.json").write_text(json.dumps({"kind": "replace", "i": 2, "l": 3}) + "\n")
PY

all_kinds='kind_policy={"replace": 0.25, "repeat": 0.25, "flip": 0.25, "translate": 0.25}'
for name in tiny default; do
    dir="$OUT/$name"
    cfg="$dir/config.json"
    run "$name/synth" synth --config "$cfg" --out "$dir/synth"
    run "$name/synth_local" synth --config "$cfg" --set train_data.fake_mode=local_desync \
        --out "$dir/synth_local"
    run "$name/augment" augment --config "$cfg" --set "$all_kinds" --data "$dir/synth/train" \
        --out "$dir/augment"
    for modality in visual audio; do
        run "$name/augment_$modality" augment --config "$cfg" --data "$dir/synth/train" \
            --spec "$OUT/replace.json" --modality "$modality" --out "$dir/augment_$modality"
    done
    run "$name/train" train --config "$cfg" --out "$dir/train"
    run "$name/train_data" train --config "$cfg" --data "$dir/synth" --out "$dir/train_data"
    run "$name/eval" eval --config "$cfg" --checkpoint "$dir/train/checkpoint.avtc" --out "$dir/eval"
    run "$name/eval_padded" eval --config "$dir/config_long.json" --data "$dir/synth" \
        --checkpoint "$dir/train_data/checkpoint.avtc" --out "$dir/eval_padded"
    run "$name/ablate" ablate --config "$cfg" --axis attention --seeds '[0]' --out "$dir/ablate"
done
run gradcheck gradcheck --instances 2
echo "output trees under $OUT"
