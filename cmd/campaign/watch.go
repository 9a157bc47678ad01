// campaign status -addr: the live, network-facing status views. One-shot
// mode GETs /campaign from a running -obs-addr (or coordinator) server;
// -watch follows the /events SSE stream and redraws the terminal on every
// campaign event, falling back to the one-shot view when the stream
// endpoint is absent (an older server, or a proxy that strips SSE).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs/alert"
	"repro/internal/obs/ts"
)

// normalizeBase turns a bare host:port into a http:// base URL.
func normalizeBase(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + strings.TrimRight(addr, "/")
}

// fetchStatus GETs the /campaign JSON view once.
func fetchStatus(base string) (*campaign.StatusJSON, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(base + "/campaign")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s/campaign: %s: %s", base, resp.Status, strings.TrimSpace(string(body)))
	}
	st := new(campaign.StatusJSON)
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		return nil, fmt.Errorf("decode %s/campaign: %w", base, err)
	}
	return st, nil
}

// watchStatus implements `campaign status -addr`. With watch unset it
// renders one status fetch; with watch set it follows the SSE stream.
func watchStatus(out io.Writer, addr string, watch, asJSON bool) error {
	base := normalizeBase(addr)
	if !watch {
		st, err := fetchStatus(base)
		if err != nil {
			return err
		}
		if asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(st)
		}
		fmt.Fprint(out, renderLiveStatus(st, nil))
		return nil
	}
	return followEvents(out, base, asJSON)
}

// followEvents consumes the /events SSE stream, redrawing on campaign
// events and collecting alert transitions into a trailer. When the
// stream cannot be established it degrades to the one-shot view rather
// than failing — old servers without the dashboard layer stay usable.
func followEvents(out io.Writer, base string, asJSON bool) error {
	resp, err := http.Get(base + "/events")
	if err != nil || resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		if resp != nil {
			resp.Body.Close()
		}
		fmt.Fprintf(out, "status: %s/events unavailable, falling back to one-shot\n", base)
		return watchStatus(out, base, false, asJSON)
	}
	defer resp.Body.Close()

	var alerts []alert.Transition
	redraw := func(st *campaign.StatusJSON) {
		if asJSON {
			json.NewEncoder(out).Encode(st)
			return
		}
		// Home + clear-below keeps the redraw flicker-free on ANSI
		// terminals; the stream ends with a normal prompt-safe newline.
		fmt.Fprint(out, "\x1b[H\x1b[J")
		fmt.Fprint(out, renderLiveStatus(st, alerts))
	}

	// Seed the screen before the first (throttled) stream event arrives.
	if st, err := fetchStatus(base); err == nil {
		redraw(st)
	}

	var last *campaign.StatusJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "":
			switch event {
			case ts.EventCampaign:
				st := new(campaign.StatusJSON)
				if err := json.Unmarshal([]byte(data), st); err == nil {
					last = st
					redraw(st)
					if st.Done >= st.PlannedRuns && st.PlannedRuns > 0 || st.Stopped {
						return nil
					}
				}
			case ts.EventAlert:
				var tr alert.Transition
				if err := json.Unmarshal([]byte(data), &tr); err == nil {
					alerts = append(alerts, tr)
					if len(alerts) > 8 {
						alerts = alerts[len(alerts)-8:]
					}
					if last != nil {
						redraw(last)
					}
				}
			}
			event, data = "", ""
		}
	}
	// Stream closed (campaign process exited): leave the final frame up.
	return sc.Err()
}

// renderLiveStatus formats a StatusJSON for the terminal: the progress
// headline, the outcome table with Wilson CIs, and the telemetry/alert
// trailers when the server carries them.
func renderLiveStatus(s *campaign.StatusJSON, alerts []alert.Transition) string {
	var b strings.Builder
	pct := 0.0
	if s.PlannedRuns > 0 {
		pct = 100 * float64(s.Done) / float64(s.PlannedRuns)
	}
	eta := "?"
	if s.ETASeconds >= 0 {
		eta = fmt.Sprintf("%.0fs", s.ETASeconds)
	}
	fmt.Fprintf(&b, "campaign %s [%s]\n", s.ID, s.Benchmark)
	fmt.Fprintf(&b, "  %d/%d runs (%.1f%%)  %d shards done of %d  %.0f runs/s  ETA %s  elapsed %.0fs\n",
		s.Done, s.PlannedRuns, pct, s.ShardsComplete, s.NumShards, s.RunsPerSec, eta, s.ElapsedSeconds)
	if s.Stopped {
		fmt.Fprintf(&b, "  stopped early: %s (%d runs saved)\n", s.Reason, s.Saved)
	}
	for _, o := range s.Outcomes {
		fmt.Fprintf(&b, "  %-10s %7d  %6.2f%% ± %.2f%%\n", o.Outcome, o.Count, 100*o.Rate, 100*o.CIHalfWidth)
	}
	if s.TS != nil {
		fmt.Fprintf(&b, "  telemetry: %d series @ %gs stride, %d SSE subscribers (%d events, %d dropped)\n",
			s.TS.Series, s.TS.StrideSeconds, s.TS.Subscribers, s.TS.Published, s.TS.Dropped)
	}
	if s.Alerts != nil {
		if len(s.Alerts.Firing) > 0 {
			fmt.Fprintf(&b, "  ALERTS FIRING: %s\n", strings.Join(s.Alerts.Firing, ", "))
		} else {
			fmt.Fprintf(&b, "  alerts: %d rules, none firing\n", len(s.Alerts.Rules))
		}
	}
	if len(alerts) > 0 {
		fmt.Fprintf(&b, "  recent alert transitions:\n")
		sorted := append([]alert.Transition(nil), alerts...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At.Before(sorted[j].At) })
		for _, tr := range sorted {
			line := fmt.Sprintf("    %s %s: %s -> %s (%.4g)",
				tr.At.Format("15:04:05"), tr.Rule, tr.From, tr.To, tr.Value)
			if tr.Profile != "" {
				line += "  profile " + tr.Profile
			}
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
