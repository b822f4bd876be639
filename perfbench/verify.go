package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/decider/difftest"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/spec"
)

// reference computes the expected answer of every distinct key of s with
// a fresh private engine on the search backend. With a non-nil cache and
// graph store the engine writes through them; restart pre-fills its
// stores this way. walkBytes is the allocation per node of re-walking
// every check item on the now-warm graphs.
func reference(s *stream, cache *engine.Cache, gs engine.GraphStore) (ref map[string][]byte, walkBytes float64, err error) {
	gc := engine.NewGraphCache(0)
	if gs != nil {
		gc.SetStore(gs)
	}
	eng := engine.New(engine.WithMaxN(analyzeMaxN), engine.WithBackend("search"),
		engine.WithCache(cache), engine.WithGraphCache(gc), engine.WithParallelism(runtime.NumCPU()))
	ref = make(map[string][]byte)

	keys := sortedKeys(s.types)
	ts := make([]*spec.FiniteType, len(keys))
	for i, k := range keys {
		ts[i] = s.types[k]
	}
	analyses, err := eng.AnalyzeAll(ts)
	if err != nil {
		return nil, 0, err
	}
	for i, k := range keys {
		ref[k] = mustJSON(analysisJSON(analyses[i]))
	}

	for _, k := range sortedKeys(s.items) {
		it := s.items[k]
		res, err := eng.Check(s.protos[it.proto], checkRequest(it.item))
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", k, err)
		}
		ref[k] = mustJSON(itemJSON(res))
	}
	if len(s.items) > 0 {
		before, nodes := totalAlloc(), 0
		for _, k := range sortedKeys(s.items) {
			it := s.items[k]
			res, err := eng.Check(s.protos[it.proto], checkRequest(it.item))
			if err != nil {
				return nil, 0, err
			}
			nodes += res.Nodes
		}
		walkBytes = float64(totalAlloc()-before) / float64(max(nodes, 1))
	}

	for _, k := range sortedKeys(s.chains) {
		c := s.chains[k]
		chain, err := eng.Theorem13(s.protos[c.Protocol], engine.CheckRequest{
			Inputs: c.Inputs, CrashQuota: c.CrashQuota, MaxNodes: serve.DefaultCheckMaxNodes})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", k, err)
		}
		resp := serve.Theorem13Response{Protocol: c.Protocol, Recording: chain.Recording, Rendered: chain.String()}
		for i, st := range chain.Stages {
			resp.Stages = append(resp.Stages, serve.Theorem13Stage{Stage: i, Class: st.Info.Class})
		}
		ref[k] = mustJSON(resp)
	}
	if gs != nil {
		if err := gc.Flush(); err != nil {
			return nil, 0, err
		}
	}
	return ref, walkBytes, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkRequest is the engine request the server builds for an item.
func checkRequest(it serve.CheckItemRequest) engine.CheckRequest {
	return engine.CheckRequest{Inputs: it.Inputs, CrashQuota: it.CrashQuota,
		MaxNodes: serve.DefaultCheckMaxNodes, SkipLiveness: it.SkipLiveness}
}

// analysisJSON renders an analysis as POST /v1/analyze does.
func analysisJSON(a *core.Analysis) *serve.Analysis {
	out := &serve.Analysis{
		Name:                       a.Type.Name(),
		Readable:                   a.Readable,
		MaxN:                       a.MaxN,
		Exact:                      a.Readable,
		ConsensusNumber:            core.LevelString(a.ConsensusNumber, a.MaxN),
		RecoverableConsensusNumber: core.LevelString(a.RecoverableConsensusNumber, a.MaxN),
	}
	for n := 2; n <= a.MaxN; n++ {
		out.Levels = append(out.Levels, serve.Level{
			N:                 n,
			Discerning:        a.Discerning[n],
			Recording:         a.Recording[n],
			DiscerningWitness: a.DiscerningWitness[n],
			RecordingWitness:  a.RecordingWitness[n],
		})
	}
	return out
}

// itemJSON renders a check item as POST /v1/check does.
func itemJSON(res *model.Result) serve.CheckItemResult {
	out := serve.CheckItemResult{OK: res.OK(), Nodes: res.Nodes, Truncated: res.Truncated}
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, serve.ViolationJSON{
			Kind: v.Kind, Trace: v.Trace.String(), Config: v.Config.String(), Detail: v.Detail})
	}
	return out
}

// grade counts the requests of every round that failed or returned an
// answer other than the reference's, and lists the first few problems.
func grade(s *stream, rounds [][]outcome, ref map[string][]byte) (failed int, problems []string) {
	note := func(format string, args ...any) {
		if len(problems) < 5 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for ri, outs := range rounds {
		for i, o := range outs {
			r := &s.reqs[i]
			if o.err != nil {
				failed++
				note("round %d request %d (%s): %v", ri, i, r.kind, o.err)
				continue
			}
			for k, key := range r.keys {
				if want, ok := ref[key]; !ok || !bytes.Equal(o.answers[k], want) {
					failed++
					note("round %d request %d: wrong answer for %s", ri, i, key)
					break
				}
			}
		}
	}
	return failed, problems
}

// witnessProblems re-verifies every positive level's witness of the
// reference analyses (which the served answers equal byte for byte)
// with the brute-force verifiers of internal/decider/difftest.
func witnessProblems(s *stream, ref map[string][]byte) []string {
	var problems []string
	for _, k := range sortedKeys(s.types) {
		var a serve.Analysis
		if err := json.Unmarshal(ref[k], &a); err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", k, err))
			continue
		}
		t := s.types[k]
		for _, l := range a.Levels {
			if l.Discerning {
				if err := difftest.VerifyDiscern(t, l.N, l.DiscerningWitness); err != nil {
					problems = append(problems, fmt.Sprintf("%s n=%d discerning: %v", k, l.N, err))
				}
			}
			if l.Recording {
				if err := difftest.VerifyRecord(t, l.N, l.RecordingWitness); err != nil {
					problems = append(problems, fmt.Sprintf("%s n=%d recording: %v", k, l.N, err))
				}
			}
		}
	}
	return problems
}

// checkProblems asserts what the paper says of the check-quota
// protocols: crash-free items never violate, recoverable protocols never
// violate under any quota, and the wait-free protocols that crashes
// break (tnn-wf, tas-reg) show violations once they get crash quotas.
func checkProblems(s *stream, ref map[string][]byte) []string {
	var problems []string
	quotaItems := make(map[string]int)
	violating := make(map[string]int)
	for _, k := range sortedKeys(s.items) {
		it := s.items[k]
		var res serve.CheckItemResult
		if err := json.Unmarshal(ref[k], &res); err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", k, err))
			continue
		}
		recoverable := strings.HasPrefix(it.proto, "cas-rec") || strings.HasPrefix(it.proto, "tnn-rec")
		if (recoverable || it.item.CrashQuota == nil) && !res.OK {
			problems = append(problems, fmt.Sprintf("%s: unexpected violations %v", k, res.Violations))
		}
		if it.item.CrashQuota != nil {
			quotaItems[it.proto]++
			if len(res.Violations) > 0 {
				violating[it.proto]++
			}
		}
	}
	for _, p := range []string{"tnn-wf:5,2", "tas-reg"} {
		if quotaItems[p] >= 5 && violating[p] == 0 {
			problems = append(problems, fmt.Sprintf("%s: no violation in %d crash-quota items", p, quotaItems[p]))
		}
	}
	return problems
}
