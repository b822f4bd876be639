package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// layerUnits lists the per-layer metrics, named after the modules they
// measure, with their units. design.json records which end-to-end
// metric each should move, on which workload.
var layerUnits = []struct{ name, unit string }{
	{"serve.self_ms", "ms"},
	{"serve.resp_bytes_per_req", "B"},
	{"engine.resolve_ms", "ms"},
	{"engine.analyze.self_ms", "ms"},
	{"engine.cache.hits", "count"},
	{"engine.cache.misses", "count"},
	{"engine.cache.hit_ratio", "ratio"},
	{"decider.runs", "count"},
	{"decider.discerning.busy_ms", "ms"},
	{"decider.recording.busy_ms", "ms"},
	{"decider.n5.level_ms", "ms"},
	{"decider.n6.level_ms", "ms"},
	{"decider.request_share", "ratio"},
	{"shard.levels", "count"},
	{"shard.imbalance", "ratio"},
	{"shard.scanned_per_level", "count"},
	{"shard.chunks_per_level", "count"},
	{"graph.resolve_ms", "ms"},
	{"graph.check_ms.crash_free", "ms"},
	{"graph.check_ms.quota", "ms"},
	{"graph.walk_nodes_per_check", "count"},
	{"graph.walk_ns_per_node", "ns"},
	{"graph.walk_bytes_per_node", "B"},
	{"graph.expanded", "count"},
	{"graph.reused", "count"},
	{"graph.reuse_ratio", "ratio"},
	{"graph.request_share", "ratio"},
	{"graphcache.hit_ratio", "ratio"},
	{"graphcache.evicted", "count"},
	{"graphcache.nodes", "count"},
	{"chain.stage_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"store.open_s", "s"},
	{"store.loaded", "count"},
	{"store.appended", "count"},
	{"store.bytes_per_decision", "B"},
	{"store.close_ms", "ms"},
	{"graphstore.load_ms", "ms"},
	{"graphstore.load_ns_per_node", "ns"},
	{"graphstore.loaded_nodes", "count"},
	{"graphstore.spills", "count"},
	{"graphstore.spilled_nodes", "count"},
	{"graphstore.flush_ms", "ms"},
	{"graphstore.errors", "count"},
	{"protodef.register_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// layerMetrics computes every per-layer metric for each traced round and
// reports the median across traced rounds.
func (r *result) layerMetrics() map[string]metric {
	perRound := make(map[string][]float64)
	var tracedRPS, plainRPS []float64
	for _, rr := range r.rounds {
		rps := float64(len(rr.outs)) / rr.streamTime.Seconds()
		if !rr.traced {
			plainRPS = append(plainRPS, rps)
			continue
		}
		tracedRPS = append(tracedRPS, rps)
		for k, v := range r.roundLayers(rr) {
			perRound[k] = append(perRound[k], v)
		}
	}
	out := make(map[string]metric)
	units := make(map[string]string)
	for _, lu := range layerUnits {
		units[lu.name] = lu.unit
	}
	for k, vs := range perRound {
		out[k] = metric{Value: median(vs), Unit: units[k], note: roundsNote(len(vs))}
	}
	out["trace.overhead_ratio"] = metric{Value: median(plainRPS) / median(tracedRPS), Unit: "ratio",
		note: fmt.Sprintf(" (untraced over traced throughput_rps, %d and %d rounds)", len(plainRPS), len(tracedRPS))}
	return out
}

// mean of a sum over a count (0 for an empty count).
func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// roundLayers computes one traced round's per-layer metrics.
func (r *result) roundLayers(rr *roundResult) map[string]float64 {
	m := make(map[string]float64)
	for _, lu := range layerUnits {
		m[lu.name] = 0 // a layer the workload does not cross reads 0
	}
	self := selfTimes(rr.spans)
	byReq := make(map[string][]*span)
	byName := make(map[string][]*span)
	for _, s := range rr.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
		byName[s.Name] = append(byName[s.Name], s)
	}
	sumDur := func(name string) (float64, int) {
		var t float64
		for _, s := range byName[name] {
			t += ms(s.dur())
		}
		return t, len(byName[name])
	}
	meanDur := func(name string) float64 { return mean(sumDur(name)) }

	// Synchronous requests: round trip, serve self time, and the share
	// of the round trip the decider and the graph walk cover.
	var serveSelf, latency, deciderCover, walkCover float64
	var syncReqs int
	for i, o := range rr.outs {
		if r.s.reqs[i].kind == kindJob {
			continue
		}
		group := byReq[fmt.Sprintf("r%d-q%d", rr.round, i)]
		var client *span
		var deciders, walks []*span
		for _, s := range group {
			switch {
			case strings.HasPrefix(s.Name, "client."):
				client = s
			case strings.HasPrefix(s.Name, "decider."):
				deciders = append(deciders, s)
			case s.Name == "graph.check":
				walks = append(walks, s)
			}
			if layerOf(s.Name) == "serve" {
				serveSelf += ms(self[s.ID])
			}
		}
		if client == nil {
			continue
		}
		syncReqs++
		latency += ms(o.latency)
		deciderCover += ms(covered(client.Start, client.End, deciders))
		walkCover += ms(covered(client.Start, client.End, walks))
	}
	m["serve.self_ms"] = mean(serveSelf, syncReqs)
	m["serve.resp_bytes_per_req"] = mean(float64(rr.respBytes), len(rr.outs))
	if latency > 0 {
		m["decider.request_share"] = deciderCover / latency
		m["graph.request_share"] = walkCover / latency
	}

	m["engine.resolve_ms"] = meanDur("engine.Resolve")
	var analyzeSelf float64
	for _, s := range byName["engine.Analyze"] {
		analyzeSelf += ms(self[s.ID])
	}
	m["engine.analyze.self_ms"] = mean(analyzeSelf, len(byName["engine.Analyze"]))
	st := rr.stats
	m["engine.cache.hits"] = float64(st.Cache.Hits)
	m["engine.cache.misses"] = float64(st.Cache.Misses)
	m["engine.cache.hit_ratio"] = st.Cache.HitRate

	m["decider.runs"] = float64(deciderRuns(st))
	m["decider.discerning.busy_ms"], _ = sumDur("decider.discerning")
	m["decider.recording.busy_ms"], _ = sumDur("decider.recording")
	levelMs := map[string][]float64{}
	shardKids := make(map[int64][]*span)
	for _, s := range byName["shard.worker"] {
		shardKids[s.Parent] = append(shardKids[s.Parent], s)
	}
	var sharded int
	var imbalance, scanned, chunks float64
	for _, name := range []string{"decider.discerning", "decider.recording"} {
		for _, s := range byName[name] {
			levelMs[s.Attrs["n"]] = append(levelMs[s.Attrs["n"]], ms(s.dur()))
			kids := shardKids[s.ID]
			if len(kids) == 0 {
				continue
			}
			sharded++
			var longest, total float64
			for _, k := range kids {
				d := ms(k.dur())
				longest, total = max(longest, d), total+d
				scanned += float64(k.extra[0])
				chunks += float64(k.extra[1])
			}
			if total > 0 {
				imbalance += longest / (total / float64(len(kids)))
			}
		}
	}
	for _, n := range []string{"5", "6"} {
		var t float64
		for _, v := range levelMs[n] {
			t += v
		}
		m["decider.n"+n+".level_ms"] = mean(t, len(levelMs[n]))
	}
	m["shard.levels"] = float64(sharded)
	m["shard.imbalance"] = mean(imbalance, sharded)
	m["shard.scanned_per_level"] = mean(scanned, sharded)
	m["shard.chunks_per_level"] = mean(chunks, sharded)

	m["graph.resolve_ms"] = 1000 * mean(rr.resolveSum, int(rr.resolveCount))
	var freeMs, quotaMs, walkNs, nodes float64
	var free, quota, items int
	for i, o := range rr.outs {
		req := &r.s.reqs[i]
		if req.kind != kindCheck || o.err != nil {
			continue
		}
		walks := append([]*span(nil), byReq[fmt.Sprintf("r%d-q%d", rr.round, i)]...)
		for k, it := range req.check.Requests {
			var res serve.CheckItemResult
			if json.Unmarshal(o.answers[k], &res) != nil {
				continue
			}
			items++
			nodes += float64(res.Nodes)
			// Match the item to its walk span by node count.
			for j, s := range walks {
				if s == nil || s.Name != "graph.check" || s.nodes != int64(res.Nodes) {
					continue
				}
				walks[j] = nil
				walkNs += float64(s.dur())
				if it.CrashQuota == nil {
					free++
					freeMs += ms(s.dur())
				} else {
					quota++
					quotaMs += ms(s.dur())
				}
				break
			}
		}
	}
	m["graph.check_ms.crash_free"] = mean(freeMs, free)
	m["graph.check_ms.quota"] = mean(quotaMs, quota)
	m["graph.walk_nodes_per_check"] = mean(nodes, items)
	if nodes > 0 {
		m["graph.walk_ns_per_node"] = walkNs / nodes
	}
	m["graph.walk_bytes_per_node"] = r.walkBytes
	m["graph.expanded"] = float64(st.Graph.Expanded)
	m["graph.reused"] = float64(st.Graph.Reused)
	m["graph.reuse_ratio"] = st.Graph.HitRate
	m["graphcache.hit_ratio"] = st.GraphCache.HitRate
	m["graphcache.evicted"] = float64(st.GraphCache.Evicted)
	m["graphcache.nodes"] = float64(st.GraphCache.Nodes)

	var stageMs, queueMs, runMs float64
	var chains int
	for i, o := range rr.outs {
		if r.s.reqs[i].kind != kindJob || o.err != nil {
			continue
		}
		chains++
		stageMs += o.chainMs / float64(max(o.stages, 1))
		queueMs += ms(o.queueWait)
		runMs += ms(o.run)
	}
	m["chain.stage_ms"] = mean(stageMs, chains)
	m["jobs.queue_wait_ms"] = mean(queueMs, chains)
	m["jobs.run_ms"] = mean(runMs, chains)

	m["store.open_s"] = meanDur("store.Open") / 1000
	m["store.loaded"] = float64(rr.td.store.Loaded)
	m["store.appended"] = float64(rr.td.store.Appended)
	m["store.bytes_per_decision"] = mean(float64(rr.td.storeBytes), rr.td.store.Loaded+rr.td.store.Appended)
	m["store.close_ms"] = rr.td.closeMs

	loadMs, loads := sumDur("graphstore.Load")
	m["graphstore.load_ms"] = mean(loadMs, loads)
	var loadedNodes float64
	for _, s := range byName["graphstore.Load"] {
		loadedNodes += float64(s.nodes)
	}
	if loadedNodes > 0 {
		m["graphstore.load_ns_per_node"] = loadMs * 1e6 / loadedNodes
	}
	if gs := st.GraphStore; gs != nil {
		m["graphstore.loaded_nodes"] = float64(gs.LoadedNodes)
		m["graphstore.spills"] = float64(gs.Spills)
		m["graphstore.spilled_nodes"] = float64(gs.SpilledNodes)
		m["graphstore.errors"] = float64(gs.Errors)
	}
	m["graphstore.flush_ms"] = rr.td.flushMs
	m["protodef.register_ms"] = meanDur("serve.protocols")
	return m
}

// selfTable renders, per layer, the self time of its spans summed over
// the traced rounds and divided by the requests they played: where a
// request's time went.
func (r *result) selfTable() []string {
	total := make(map[string]time.Duration)
	var reqs int
	for _, rr := range r.rounds {
		if !rr.traced {
			continue
		}
		reqs += len(rr.outs)
		self := selfTimes(rr.spans)
		for _, s := range rr.spans {
			total[layerOf(s.Name)] += self[s.ID]
		}
	}
	var lines []string
	for _, layer := range sortedKeys(total) {
		lines = append(lines, fmt.Sprintf("self layer=%s ms_per_req=%.4f", layer, ms(total[layer])/float64(max(reqs, 1))))
	}
	return lines
}

// Environment labels.

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.Join(strings.Fields(v), "_")
			}
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, identifying the measured code where no commit is known.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00" + strconv.Itoa(len(b)) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
