package dashboard

import (
	"bytes"
	"net/http"
	"sync"

	"repro/internal/report"
)

// pageHandler renders the dashboard page once (it is static — all live
// data arrives over /events) and serves the cached bytes.
func pageHandler(title string) http.Handler {
	var once sync.Once
	var page []byte
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() {
			doc := report.NewHTMLDoc(title)
			doc.AddDiv("dash-status")
			doc.AddHeading("Campaign")
			doc.AddDiv("dash-campaign")
			doc.AddHeading("Fleet")
			doc.AddDiv("dash-fleet")
			doc.AddHeading("Cache")
			doc.AddDiv("dash-cache")
			doc.AddHeading("Incremental sections")
			doc.AddDiv("dash-inc")
			doc.AddHeading("Recent spans")
			doc.AddDiv("dash-spans")
			doc.AddHeading("Alerts")
			doc.AddDiv("dash-alerts")
			doc.AddScript(dashJS)
			var buf bytes.Buffer
			if err := doc.Render(&buf); err != nil {
				page = []byte("dashboard render error: " + err.Error())
				return
			}
			page = buf.Bytes()
		})
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(page)
	})
}

// dashJS is the dashboard's inline script: it subscribes to /events and
// re-renders each section from the latest state. Stdlib-only on the Go
// side, dependency-free on the browser side (EventSource + fetch + DOM;
// sparklines are hand-built inline SVG).
const dashJS = `
(function () {
  'use strict';
  document.head.insertAdjacentHTML('beforeend', '<style>' +
    '.badge{display:inline-block;padding:.15em .6em;border-radius:3px;color:#fff;font-size:.85em;margin-right:.5em}' +
    '.b-ok{background:#2e7d32}.b-warn{background:#e39802}.b-bad{background:#c62828}.b-dim{background:#888}' +
    '.bar{height:1em;background:#eee;border:1px solid #ccc;border-radius:2px;overflow:hidden;max-width:30em}' +
    '.bar>div{height:100%;background:#4878cf}' +
    '.muted{color:#666;font-size:.85em}' +
    'svg.spark{vertical-align:middle}' +
    '</style>');

  var state = {
    sse: 'connecting', campaign: null, fleet: null, alerts: null,
    health: null, metrics: {}, hist: {}, spans: [], ciHist: {}
  };
  var HIST_CAP = 240;

  function $(id) { return document.getElementById(id); }
  function esc(s) {
    return String(s).replace(/[&<>"]/g, function (c) {
      return { '&': '&amp;', '<': '&lt;', '>': '&gt;', '"': '&quot;' }[c];
    });
  }
  function num(v, d) {
    if (v === null || v === undefined || isNaN(v)) return '–';
    if (Number.isInteger(v) && d === undefined) return String(v);
    return Number(v).toFixed(d === undefined ? 2 : d);
  }
  // parseKey splits 'name{k="v",...}' into {name, labels}.
  function parseKey(k) {
    var i = k.indexOf('{');
    if (i < 0) return { name: k, labels: {} };
    var labels = {};
    k.slice(i + 1, -1).split(',').forEach(function (p) {
      var m = p.match(/^(\w+)="(.*)"$/);
      if (m) labels[m[1]] = m[2];
    });
    return { name: k.slice(0, i), labels: labels };
  }
  function push(arr, p) { arr.push(p); if (arr.length > HIST_CAP) arr.shift(); }
  function spark(points, w, h, color) {
    if (!points || points.length < 2) return '';
    w = w || 120; h = h || 22; color = color || '#4878cf';
    var min = Infinity, max = -Infinity;
    points.forEach(function (p) { if (p.v < min) min = p.v; if (p.v > max) max = p.v; });
    if (max === min) { max = min + 1; }
    var pts = points.map(function (p, i) {
      var x = (i / (points.length - 1)) * (w - 2) + 1;
      var y = h - 1 - ((p.v - min) / (max - min)) * (h - 2);
      return x.toFixed(1) + ',' + y.toFixed(1);
    }).join(' ');
    return '<svg class="spark" width="' + w + '" height="' + h + '">' +
      '<polyline points="' + pts + '" fill="none" stroke="' + color + '" stroke-width="1.5"/></svg>';
  }
  function table(cols, rows) {
    var h = '<table><tr>';
    cols.forEach(function (c) { h += '<th>' + esc(c) + '</th>'; });
    h += '</tr>';
    rows.forEach(function (r) {
      h += '<tr>';
      r.forEach(function (c) { h += '<td>' + c + '</td>'; });
      h += '</tr>';
    });
    return h + '</table>';
  }

  function renderStatus() {
    var sseCls = state.sse === 'live' ? 'b-ok' : (state.sse === 'connecting' ? 'b-dim' : 'b-warn');
    var hs = state.health ? state.health.status : 'unknown';
    var hCls = hs === 'ok' ? 'b-ok' : (hs === 'degraded' ? 'b-bad' : 'b-dim');
    var html = '<p><span class="badge ' + sseCls + '">stream: ' + esc(state.sse) + '</span>' +
      '<span class="badge ' + hCls + '">health: ' + esc(hs) + '</span>';
    if (state.health && state.health.firing) {
      html += '<span class="badge b-bad">firing: ' + esc(state.health.firing.join(', ')) + '</span>';
    }
    html += '<span class="muted">/ts · /events · /alerts · /metrics</span></p>';
    $('dash-status').innerHTML = html;
  }

  function renderCampaign() {
    var c = state.campaign;
    if (!c) { $('dash-campaign').innerHTML = '<p class="muted">no campaign yet</p>'; return; }
    var pct = c.planned_runs > 0 ? (100 * c.done / c.planned_runs) : 0;
    var html = '<p><b>' + esc(c.id) + '</b> [' + esc(c.benchmark) + '] — ' +
      num(c.done) + '/' + num(c.planned_runs) + ' runs (' + num(pct, 1) + '%), ' +
      num(c.runs_per_sec, 1) + ' runs/s, shards ' + num(c.shards_complete) + '/' + num(c.num_shards);
    if (c.eta_seconds >= 0) html += ', ETA ' + num(c.eta_seconds, 0) + 's';
    if (c.stopped) html += ' — stopped early (' + esc(c.reason || '') + ', saved ' + num(c.saved) + ')';
    html += '</p><div class="bar"><div style="width:' + Math.min(100, pct).toFixed(1) + '%"></div></div>';
    var rows = (c.outcomes || []).map(function (o) {
      var hist = state.ciHist[o.outcome] || [];
      return [esc(o.outcome), num(o.count),
        (100 * o.rate).toFixed(2) + '% ± ' + (100 * o.ci_half_width).toFixed(2) + '%',
        spark(hist.map(function (p) { return { v: p.hw }; }))];
    });
    html += table(['outcome', 'count', 'rate (Wilson 95%)', 'CI half-width trend'], rows);
    $('dash-campaign').innerHTML = html;
  }

  function renderFleet() {
    var f = state.fleet;
    if (!f) { $('dash-fleet').innerHTML = '<p class="muted">no dist coordinator in this process</p>'; return; }
    var html = '<p>shards: ' + num(f.shards_done) + ' done / ' + num(f.shards_leased) +
      ' leased / ' + num(f.shards_pending) + ' pending (' + num(f.shards_requeued) +
      ' requeued), runs merged: ' + num(f.runs_merged) + '</p>';
    var workers = f.workers || [];
    if (workers.length) {
      html += table(['worker', 'shards done', 'active leases', 'lease age'],
        workers.map(function (w) {
          return [esc(w.name), num(w.shards_done), num(w.active_leases),
            num(w.lease_age_seconds, 1) + 's'];
        }));
    } else {
      html += '<p class="muted">no live workers</p>';
    }
    $('dash-fleet').innerHTML = html;
  }

  function cacheStats() {
    // Fold epvf_cache_hits_total{tier,kind} + epvf_cache_misses_total{kind}
    // into per-kind hit ratios.
    var kinds = {};
    Object.keys(state.metrics).forEach(function (k) {
      var pk = parseKey(k);
      if (pk.name !== 'epvf_cache_hits_total' && pk.name !== 'epvf_cache_misses_total') return;
      var kind = pk.labels.kind || '?';
      var e = kinds[kind] || (kinds[kind] = { hits: 0, misses: 0 });
      if (pk.name === 'epvf_cache_hits_total') e.hits += state.metrics[k].v;
      else e.misses += state.metrics[k].v;
    });
    return kinds;
  }

  function renderCache() {
    var kinds = cacheStats();
    var names = Object.keys(kinds).sort();
    if (!names.length) { $('dash-cache').innerHTML = '<p class="muted">no cache traffic yet</p>'; return; }
    $('dash-cache').innerHTML = table(['kind', 'hits', 'misses', 'hit ratio'],
      names.map(function (n) {
        var e = kinds[n], total = e.hits + e.misses;
        return [esc(n), num(e.hits), num(e.misses),
          total ? (100 * e.hits / total).toFixed(1) + '%' : '–'];
      }));
  }

  function renderInc() {
    var rows = [];
    ['epvf_inc_sections_total', 'epvf_inc_sections_reused_total', 'epvf_inc_sections_recomputed_total']
      .forEach(function (name) {
        var total = 0, seen = false;
        Object.keys(state.metrics).forEach(function (k) {
          if (parseKey(k).name === name) { total += state.metrics[k].v; seen = true; }
        });
        if (seen) rows.push([esc(name.replace('epvf_inc_sections_', '').replace('_total', '') || 'seen'), num(total)]);
      });
    $('dash-inc').innerHTML = rows.length ? table(['sections', 'count'], rows)
      : '<p class="muted">no incremental analysis in this process</p>';
  }

  function renderSpans() {
    if (!state.spans.length) { $('dash-spans').innerHTML = '<p class="muted">no spans yet</p>'; return; }
    $('dash-spans').innerHTML = table(['span', 'proc', 'wall', 'allocs'],
      state.spans.slice(-12).reverse().map(function (s) {
        return [esc(s.name), esc(s.proc || ''), (s.wall_ns / 1e6).toFixed(2) + 'ms', num(s.allocs)];
      }));
  }

  function renderAlerts() {
    var a = state.alerts;
    if (!a) { $('dash-alerts').innerHTML = '<p class="muted">alert engine not mounted</p>'; return; }
    var html = table(['rule', 'state', 'value', 'threshold', 'description'],
      (a.rules || []).map(function (r) {
        var cls = r.state === 'firing' ? 'b-bad' : (r.state === 'pending' ? 'b-warn' : 'b-ok');
        return [esc(r.name), '<span class="badge ' + cls + '">' + esc(r.state) + '</span>',
          num(r.value, 4), esc(r.op) + ' ' + num(r.threshold, 4), '<span class="muted">' + esc(r.desc || '') + '</span>'];
      }));
    var trs = (a.transitions || []).slice(-10).reverse();
    if (trs.length) {
      html += table(['at', 'rule', 'transition', 'value', 'profile'],
        trs.map(function (t) {
          return [esc((t.at || '').replace('T', ' ').slice(0, 19)), esc(t.rule),
            esc(t.from) + ' → ' + esc(t.to), num(t.value, 4),
            t.profile ? '<span class="muted">' + esc(t.profile) + '</span>' : '–'];
        }));
    }
    $('dash-alerts').innerHTML = html;
  }

  function onCampaign(c) {
    state.campaign = c;
    (c.outcomes || []).forEach(function (o) {
      push(state.ciHist[o.outcome] = state.ciHist[o.outcome] || [], { hw: o.ci_half_width });
    });
    if (c.alerts) { state.alerts = c.alerts; renderAlerts(); }
    renderCampaign();
  }

  function refetchAlerts() {
    fetch('/alerts').then(function (r) { return r.ok ? r.json() : null; })
      .then(function (j) { if (j) { state.alerts = j; renderAlerts(); } }).catch(function () {});
  }
  function refetchHealth() {
    fetch('/healthz').then(function (r) { return r.ok ? r.json() : null; })
      .then(function (j) { if (j) { state.health = j; renderStatus(); } }).catch(function () {});
  }

  function connect() {
    var es = new EventSource('/events');
    es.addEventListener('hello', function () { state.sse = 'live'; renderStatus(); });
    es.addEventListener('metrics', function (e) {
      JSON.parse(e.data).forEach(function (d) {
        state.metrics[d.k] = { v: d.v, r: d.r };
        push(state.hist[d.k] = state.hist[d.k] || [], { v: d.v });
      });
      renderCache(); renderInc();
    });
    es.addEventListener('campaign', function (e) { onCampaign(JSON.parse(e.data)); });
    es.addEventListener('fleet', function (e) { state.fleet = JSON.parse(e.data); renderFleet(); });
    es.addEventListener('span', function (e) { push(state.spans, JSON.parse(e.data)); renderSpans(); });
    es.addEventListener('alert', function (e) {
      refetchAlerts(); refetchHealth();
    });
    es.onerror = function () { state.sse = 'reconnecting'; renderStatus(); };
  }

  // Seed every section from the snapshot endpoints, then go live.
  fetch('/campaign').then(function (r) { return r.ok ? r.json() : null; })
    .then(function (j) { if (j) onCampaign(j); }).catch(function () {});
  fetch('/ts').then(function (r) { return r.ok ? r.json() : null; })
    .then(function (j) {
      if (!j || !j.series) return;
      j.series.forEach(function (s) {
        if (!s.points || !s.points.length) return;
        var labels = Object.keys(s.labels || {}).sort().map(function (k) {
          return k + '="' + s.labels[k] + '"';
        }).join(',');
        var key = labels ? s.name + '{' + labels + '}' : s.name;
        state.metrics[key] = { v: s.points[s.points.length - 1].v };
        state.hist[key] = s.points.map(function (p) { return { v: p.v }; });
      });
      renderCache(); renderInc();
    }).catch(function () {});
  refetchAlerts();
  refetchHealth();
  setInterval(refetchHealth, 5000);
  renderStatus(); renderCampaign(); renderFleet();
  renderCache(); renderInc(); renderSpans(); renderAlerts();
  connect();
})();
`
