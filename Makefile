# Tier-1 verification gate and convenience targets.

.PHONY: check build test fmt vet bench-obs bench-snapshot dist-demo attr-demo serve-demo trace-demo gate-demo dash-demo

check:
	./scripts/check.sh

# dist-demo runs a distributed campaign end-to-end on this machine: a
# coordinator plus two workers over loopback HTTP, with the merged log
# printed at the end.
dist-demo:
	./scripts/dist_demo.sh

# attr-demo runs a small campaign and renders the prediction-vs-ground-
# truth attribution ledger: the ranked text report plus the standalone
# HTML heatmap report (./attr.html), asserting the HTML is well-formed.
attr-demo:
	./scripts/attr_demo.sh

# serve-demo starts the `epvf serve` analysis daemon with a disk cache,
# runs the same analysis against it cold and warm, and asserts the
# daemon reports are byte-identical to a local run, that /metrics shows
# the cache-hit counter increasing, and that the warm request is at
# least 10x faster than the cold one.
serve-demo:
	./scripts/serve_demo.sh

# trace-demo runs a campaign across four processes (analysis daemon,
# coordinator, worker, publishing CLI) and asserts their spans form one
# connected cross-process trace — single tree, no orphans, all procs —
# that the daemon's /debug/flight dump is non-empty, and that the HTML
# timeline renders.
trace-demo:
	./scripts/trace_demo.sh

# gate-demo exercises the incremental analysis layer end-to-end: edits
# one function of a real kernel and asserts `epvf diff` recomputes only
# that section, then runs the `epvf gate` protect->re-verify loop cold
# and warm against one section cache and asserts the warm analyses are
# at least 5x faster.
gate-demo:
	./scripts/gate_demo.sh

# dash-demo exercises the live telemetry surface end-to-end: a
# worker-less coordinator stalls (alert fires, /healthz degrades, a
# pprof bundle lands in the cache under obs-profile-v1), a worker joins
# and the stall resolves; along the way it asserts /dashboard renders
# well-formed HTML and /events streams at least one SSE event.
dash-demo:
	./scripts/dash_demo.sh

# bench-obs asserts the disabled observability path stays under the noise
# floor (TestDisabledOverheadUnderNoise) and prints the nil-handle
# benchmark numbers alongside the enabled-path cost.
bench-obs:
	go test ./internal/obs/ -run TestDisabledOverheadUnderNoise -v
	go test ./internal/obs/ -run '^$$' -bench 'Disabled|Enabled' -benchtime 0.2s

# bench-snapshot runs the same campaign from scratch and with COW
# snapshot restore, verifies the records are bit-identical, and refreshes
# the committed comparison (wall times are machine-dependent; the event
# counters are deterministic).
bench-snapshot:
	go run ./cmd/snapbench -out BENCH_snapshot.json

build:
	go build ./...

test:
	go test ./...

fmt:
	gofmt -w .

vet:
	go vet ./...
