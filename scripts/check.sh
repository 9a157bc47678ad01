#!/bin/sh
# Tier-1 verification gate: formatting, vet, build, tests.
# Run from the repository root (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# perfbench/ is a nested module (it replaces repro with this checkout), so
# the root's ./... skips it; vet it so an exported signature it calls
# cannot break it unnoticed. Offline, and it writes nothing under perfbench/.
echo "== go vet perfbench (nested benchmark module)"
GOFLAGS=-mod=mod GOPROXY=off go vet -C perfbench .

echo "== go test"
go test ./...

echo "== go test -race (obs + ts + alert + dashboard + campaign + dist + snapshot + mem + fi + attr + cache + inc + serve + vm + rangeprop + epvf + trace + traced CLIs)"
go test -race ./internal/obs/... ./internal/obs/ts/... ./internal/obs/alert/... \
    ./internal/dashboard/... ./internal/campaign/... ./internal/dist/... \
    ./internal/snapshot/... ./internal/mem/... ./internal/fi/... ./internal/attr/... \
    ./internal/cache/... ./internal/inc/... ./internal/serve/... ./internal/vm/... \
    ./internal/rangeprop/... ./internal/epvf/... ./internal/trace/... \
    ./cmd/epvf/... ./cmd/campaign/...

echo "== vm smoke (VM runs and snapshot resumes vs the walker oracle, fuzz corpus seeds, vm-code-v1 decoder corpus)"
go test ./internal/vm/ -run 'TestDifferentialKernels|TestDifferentialEdgeCases|TestDifferentialResume|FuzzDifferential|FuzzDecodeFnCode|TestFuzzDecodeFnCodeCorpus' -count=1

echo "== trace load fuzz smoke (committed FuzzLoad seed corpus: kernels, truncated, corrupted)"
go test ./internal/trace/ -run 'FuzzLoad|TestFuzzLoadCorpus' -count=1

echo "check: OK"
