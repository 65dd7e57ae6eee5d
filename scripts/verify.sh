#!/usr/bin/env bash
# Mirror the repo into an offline build sandbox (path-stubbed external
# deps under /tmp/stubs) and run the tier-1 gate there. Usage:
#   scripts/verify.sh [extra cargo test args]
set -euo pipefail

SANDBOX=${SANDBOX:-/tmp/fiat-check}
STUBS=${STUBS:-/tmp/stubs}

# Mirror the tree (no rsync in the image): delete everything except the
# warm target dir, then copy afresh.
mkdir -p "$SANDBOX"
find "$SANDBOX" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
(cd /root/repo && tar cf - --exclude=.git --exclude=target .) | tar xf - -C "$SANDBOX"

# Point the workspace's external deps at the offline stubs.
python3 - "$SANDBOX/Cargo.toml" "$STUBS" <<'EOF'
import re, sys
path, stubs = sys.argv[1], sys.argv[2]
text = open(path).read()
for name, extra in [
    ("rand", ""),
    ("proptest", ""),
    ("serde", ', features = ["derive"]'),
    ("serde_json", ""),
]:
    text = re.sub(
        rf'^{name} = .*$',
        f'{name} = {{ path = "{stubs}/{name}"{extra} }}',
        text, count=1, flags=re.M)
open(path, "w").write(text)
EOF

cd "$SANDBOX"
cargo build --release --offline
cargo test -q --offline "$@"
