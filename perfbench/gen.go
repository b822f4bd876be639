package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/protogen"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/spec"
)

// rng is splitmix64, the generator internal/protogen uses: stable across
// Go releases, so a seed names the same stream forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// pickSlots marks k seeded positions in each consecutive block of size
// block, so a share holds over every stretch of the stream, not only on
// average.
func (r *rng) pickSlots(n, block, k int) []bool {
	out := make([]bool, n)
	for lo := 0; lo < n; lo += block {
		size := min(block, n-lo)
		for _, i := range r.perm(size)[:min(k, size)] {
			out[lo+i] = true
		}
	}
	return out
}

// kind is what a stream request asks of the server.
type kind int

const (
	kindAnalyze kind = iota
	kindCheck
	kindJob
)

func (k kind) String() string {
	return [...]string{"analyze", "check", "job"}[k]
}

// request is one generated request. The server receives only the
// marshaled body; the other fields let the benchmark check the answer.
type request struct {
	kind    kind
	analyze *serve.AnalyzeRequest
	check   *serve.CheckRequestBody
	job     *serve.JobRequest
	// keys names each distinct answer the request produces: one for an
	// analysis or a chain, one per item for a check batch.
	keys []string
	// first reports that the request touches a cache key (a type, or a
	// protocol and input vector) no earlier request touched.
	first bool
	// quotaItems counts check items that carry a crash quota.
	quotaItems int
}

// stream is one workload's fixed request sequence plus what the server
// must know before it: the protocols registered during set-up.
type stream struct {
	reqs []request
	// protocols are protodef descriptors to POST /v1/protocols in set-up,
	// in order; fingerprints are their expected registration answers.
	protocols    [][]byte
	fingerprints []string
	// The verifier's inputs, by answer key: the type an analyze key
	// analyzes, the protocol and item a check key runs, the chain a job
	// key builds. protos resolves protocol names.
	types  map[string]*spec.FiniteType
	items  map[string]checkItem
	chains map[string]*serve.Theorem13Request
	protos map[string]model.Protocol
}

// checkItem is one distinct model-check item.
type checkItem struct {
	proto string
	item  serve.CheckItemRequest
}

// digest is a short hash of every byte the server receives, so two runs
// can show that they measured the same inputs.
func (s *stream) digest() string {
	h := sha256.New()
	for _, d := range s.protocols {
		h.Write(d)
		h.Write([]byte{0})
	}
	for _, r := range s.reqs {
		b, _ := json.Marshal(r.body())
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// body is the request's JSON body.
func (r *request) body() any {
	switch r.kind {
	case kindAnalyze:
		return r.analyze
	case kindCheck:
		return r.check
	}
	return r.job
}

// shares reports the stream's measured properties: the share of
// requests that touch a new cache key, of check items with a crash
// quota, and of requests that are async jobs.
func (s *stream) shares() (first, quota, job float64) {
	var nFirst, nJob, items, quotaItems int
	for _, r := range s.reqs {
		if r.first {
			nFirst++
		}
		if r.kind == kindJob {
			nJob++
		}
		if r.kind == kindCheck {
			items += len(r.check.Requests)
			quotaItems += r.quotaItems
		}
	}
	n := float64(len(s.reqs))
	first, job = float64(nFirst)/n, float64(nJob)/n
	if items > 0 {
		quota = float64(quotaItems) / float64(items)
	}
	return first, quota, job
}

// analyzeMaxN is the analysis bound of every analyze request; the
// server is configured with it as its ceiling too.
const analyzeMaxN = 6

// typeFamilies is the analyze-n6 registry type space, one bounded
// parameter range per family. Ranges keep a cold n=6 analysis on the
// search backend under about 200 ms on one core.
func typeFamilies() [][]string {
	rangeOf := func(name string, lo, hi int) []string {
		var out []string
		for k := lo; k <= hi; k++ {
			out = append(out, fmt.Sprintf("%s:%d", name, k))
		}
		return out
	}
	var tnn []string
	for n := 2; n <= 7; n++ {
		for np := 1; np < n; np++ {
			tnn = append(tnn, fmt.Sprintf("tnn:%d,%d", n, np))
		}
	}
	// Small products: unordered pairs of two-operation components over
	// at most two values.
	comps := []string{"tas", "register:1", "swap:1", "faa:2", "counter:2"}
	var products []string
	for i := range comps {
		for j := i; j < len(comps); j++ {
			products = append(products, "product:"+comps[i]+","+comps[j])
		}
	}
	return [][]string{
		rangeOf("register", 1, 3),
		rangeOf("swap", 1, 3),
		rangeOf("faa", 2, 28),
		rangeOf("counter", 2, 28),
		rangeOf("maxreg", 2, 3),
		rangeOf("queue", 1, 4),
		rangeOf("stack", 1, 4),
		rangeOf("peekqueue", 1, 4),
		rangeOf("cas", 2, 20),
		tnn,
		rangeOf("y", 2, 7),
		{"x4", "x5"},
		products,
	}
}

// stratified draws k names from the families without replacement, each
// family contributing in proportion to its size (largest remainder), so
// every seed gets the same family mix. Families list their types in
// parameter order.
func stratified(r *rng, families [][]string, k int) []string {
	total := 0
	for _, f := range families {
		total += len(f)
	}
	if k > total {
		k = total
	}
	quota := make([]int, len(families))
	type rem struct{ i, frac int }
	var rems []rem
	given := 0
	for i, f := range families {
		quota[i] = k * len(f) / total
		given += quota[i]
		rems = append(rems, rem{i, k * len(f) % total})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; given < k; i++ {
		quota[rems[i].i]++
		given++
	}
	// Within a family, sample systematically along the parameter order
	// from a seeded offset: cost grows with the parameters, so every seed
	// draws the same spread of cheap and expensive types.
	var out []string
	for i, f := range families {
		if quota[i] == 0 {
			continue
		}
		u := float64(r.next()>>11) / (1 << 53)
		for j := 0; j < quota[i]; j++ {
			out = append(out, f[int((float64(j)+u)*float64(len(f))/float64(quota[i]))])
		}
	}
	return out
}

// protogenTypes draws k single-object protogen protocols, spread evenly
// over the generator's operation and value counts (which set the cost of
// an analysis), with their structural fingerprints. It skips a protocol whose object type repeats
// one in seen, and one whose fingerprint repeats an earlier draw: the
// fingerprint covers only the reachable state machine, so two
// descriptors whose types differ in operations the machine never
// applies register as one protocol.
func protogenTypes(r *rng, k int, seen map[uint64]bool) ([]*protogen.Artifact, []string, error) {
	var out []*protogen.Artifact
	var fps []string
	seenFP := make(map[string]bool)
	// Strata: the generator's 1-3 operations times 2-5 values.
	type stratum struct{ ops, values int }
	want := make(map[stratum]int)
	for i := 0; i < k; i++ {
		want[stratum{1 + i%3, 2 + i/3%4}]++
	}
	for len(out) < k {
		a := protogen.Generate(r.next())
		if len(a.Compiled.Objects()) != 1 {
			continue
		}
		t := a.Types()[0]
		st := stratum{t.NumOps(), t.NumValues()}
		if want[st] == 0 || seen[t.Fingerprint()] {
			continue
		}
		fp, err := model.Fingerprint(a.Compiled)
		if err != nil {
			return nil, nil, err
		}
		if seenFP[fp] {
			continue
		}
		seenFP[fp] = true
		want[st]--
		seen[t.Fingerprint()] = true
		out = append(out, a)
		fps = append(fps, fp)
	}
	return out, fps, nil
}

// sizes scales the streams: full for measurement, tiny for the smoke
// test.
type sizes struct {
	analyzeReqs int // analyze-n6 requests; a multiple of 10
	checkReqs   int // check-quota requests; a multiple of 20
}

var (
	fullSizes = sizes{analyzeReqs: 570, checkReqs: 300}
	tinySizes = sizes{analyzeReqs: 20, checkReqs: 40}
)

// analyzeStream generates analyze-n6: 30% first touches at seeded
// positions in every block of ten requests, about a fifth of the
// distinct types being registered protogen protocols, and every other
// request repeating a type seen earlier in the stream. At full size the
// registry first touches take all but one type of typeFamilies, so
// every seed analyzes nearly the same types (which sets the cold work)
// while the space never runs out before the stream ends.
func analyzeStream(seed uint64, sz sizes) (*stream, error) {
	r := &rng{s: seed ^ 0xa11a1e5e}
	n := sz.analyzeReqs
	first := r.pickSlots(n, 10, 3)
	// The stream opens with a first touch: move one from the first block.
	for j := 1; !first[0]; j++ {
		first[0], first[j] = first[j], false
	}
	nFirst := 0
	for _, f := range first {
		if f {
			nFirst++
		}
	}
	protoSlot := r.pickSlots(nFirst, 5, 1)
	nProto := 0
	for _, p := range protoSlot {
		if p {
			nProto++
		}
	}
	// When the registry space is smaller than its share of first touches,
	// protogen protocols fill the rest.
	families := typeFamilies()
	space := 0
	for _, f := range families {
		space += len(f)
	}
	nReg := min(nFirst-nProto, space)
	nProto = nFirst - nReg

	s := &stream{types: make(map[string]*spec.FiniteType)}
	seen := make(map[uint64]bool)
	var drawn []*request
	for _, desc := range stratified(r, families, nReg) {
		t, err := registry.Parse(desc)
		if err != nil {
			return nil, err
		}
		if seen[t.Fingerprint()] {
			continue
		}
		seen[t.Fingerprint()] = true
		key := "type " + desc
		s.types[key] = t
		drawn = append(drawn, &request{kind: kindAnalyze,
			analyze: &serve.AnalyzeRequest{Type: desc, MaxN: analyzeMaxN}, keys: []string{key}})
	}
	regQueue := make([]*request, len(drawn))
	for i, j := range r.perm(len(drawn)) {
		regQueue[i] = drawn[j]
	}
	var protoQueue []*request
	arts, fps, err := protogenTypes(r, nProto, seen)
	if err != nil {
		return nil, err
	}
	for i, a := range arts {
		raw, err := json.Marshal(a.Descriptor)
		if err != nil {
			return nil, err
		}
		fp := fps[i]
		s.protocols = append(s.protocols, raw)
		s.fingerprints = append(s.fingerprints, fp)
		key := "protocol " + fp
		s.types[key] = a.Types()[0]
		protoQueue = append(protoQueue, &request{kind: kindAnalyze,
			analyze: &serve.AnalyzeRequest{ProtocolFingerprint: fp, MaxN: analyzeMaxN}, keys: []string{key}})
	}

	var touched []*request
	fi := 0
	for i := 0; i < n; i++ {
		if first[i] && (len(regQueue) > 0 || len(protoQueue) > 0) {
			var next *request
			if (protoSlot[fi] && len(protoQueue) > 0) || len(regQueue) == 0 {
				next, protoQueue = protoQueue[0], protoQueue[1:]
			} else {
				next, regQueue = regQueue[0], regQueue[1:]
			}
			fi++
			touched = append(touched, next)
			c := *next
			c.first = true
			s.reqs = append(s.reqs, c)
			continue
		}
		s.reqs = append(s.reqs, *touched[r.intn(len(touched))])
	}
	return s, nil
}

// checkProtocols is the check-quota protocol set: recoverable protocols
// (cas-rec, tnn-rec) that must never fail, and wait-free ones that crash
// quotas can break.
var checkProtocols = []string{"cas-rec:3", "cas-rec:4", "cas-rec:5", "cas-wf:5", "tnn-wf:5,2", "tnn-rec:5,3", "tas-reg"}

// chainProtocols are the theorem13 job targets.
var chainProtocols = []string{"cas-rec:3", "cas-rec:4", "cas-rec:5", "tnn-rec:5,3"}

// checkItemKey names one check item's answer.
func checkItemKey(proto string, it serve.CheckItemRequest) string {
	return fmt.Sprintf("check %s in=%v quota=%v", proto, it.Inputs, it.CrashQuota)
}

// graphKey names the exploration graph a check item walks.
func graphKey(proto string, inputs []int) string {
	return fmt.Sprintf("%s in=%v", proto, inputs)
}

// deck deals 0..n-1 in seeded permutations, reshuffling when empty, so
// every value appears equally often over any stretch of the stream.
type deck struct {
	r    *rng
	n    int
	left []int
}

func (d *deck) deal() int {
	if len(d.left) == 0 {
		d.left = d.r.perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// quotaShape is a crash quota q on k processes.
type quotaShape struct{ q, k int }

// quotaShapes are the crash quotas a check item can carry on a protocol
// of np processes: 1 on one to four processes, or 2 on one or two.
func quotaShapes(np int) []quotaShape {
	var out []quotaShape
	for k := 1; k <= min(4, np); k++ {
		out = append(out, quotaShape{1, k})
	}
	for k := 1; k <= min(2, np); k++ {
		out = append(out, quotaShape{2, k})
	}
	return out
}

// checkStream generates check-quota: one request in every block of
// twenty is a theorem13 job; the rest are check batches of 1-4 items,
// protocols cycling through seeded permutations of checkProtocols. Two
// items in five are crash-free; the others carry one of quotaShapes.
// Each protocol deals its batch sizes, input vectors, quota shapes and
// crashing processes from decks, so every seed gets the same mix.
func checkStream(seed uint64, sz sizes) (*stream, error) {
	r := &rng{s: seed ^ 0xc4ec4}
	s := &stream{protos: make(map[string]model.Protocol), items: make(map[string]checkItem),
		chains: make(map[string]*serve.Theorem13Request)}
	procs := make(map[string]int)
	inputDeck := make(map[string]*deck)
	shapeDeck := make(map[string]*deck)
	procDeck := make(map[string]*deck)
	countDeck := make(map[string]*deck)
	for _, name := range append(append([]string(nil), checkProtocols...), chainProtocols...) {
		p, err := registry.ParseProtocol(name)
		if err != nil {
			return nil, err
		}
		procs[name] = p.Procs()
		s.protos[name] = p
		inputDeck[name] = &deck{r: r, n: 1 << p.Procs()}
		shapeDeck[name] = &deck{r: r, n: len(quotaShapes(p.Procs()))}
		procDeck[name] = &deck{r: r, n: p.Procs()}
		countDeck[name] = &deck{r: r, n: 4}
	}
	bits := func(v, n int) []int {
		in := make([]int, n)
		for i := range in {
			in[i] = v >> i & 1
		}
		return in
	}
	protoDeck := &deck{r: r, n: len(checkProtocols)}
	chainDeck := &deck{r: r, n: len(chainProtocols)}
	freeDeck := &deck{r: r, n: 5} // dealt 0 or 1: crash-free
	n := sz.checkReqs
	jobSlot := r.pickSlots(n, 20, 1)
	seenGraph := make(map[string]bool)
	for i := 0; i < n; i++ {
		if jobSlot[i] {
			name := chainProtocols[chainDeck.deal()]
			np := procs[name]
			// Mixed inputs: the chain needs a bivalent initial configuration.
			in := bits(1+r.intn(1<<np-2), np)
			quota := make([]int, np)
			for p := 1; p < np; p++ {
				quota[p] = r.intn(2)
			}
			body := &serve.Theorem13Request{Protocol: name, Inputs: in, CrashQuota: quota}
			gk := graphKey(name, in)
			key := fmt.Sprintf("chain %s in=%v quota=%v", name, in, quota)
			s.chains[key] = body
			s.reqs = append(s.reqs, request{kind: kindJob,
				job:   &serve.JobRequest{Kind: "theorem13", Theorem13: body},
				keys:  []string{key},
				first: !seenGraph[gk]})
			seenGraph[gk] = true
			continue
		}
		name := checkProtocols[protoDeck.deal()]
		np := procs[name]
		req := request{kind: kindCheck, check: &serve.CheckRequestBody{Protocol: name}}
		for k := 1 + countDeck[name].deal(); k > 0; k-- {
			it := serve.CheckItemRequest{Inputs: bits(inputDeck[name].deal(), np)}
			if freeDeck.deal() >= 2 {
				sh := quotaShapes(np)[shapeDeck[name].deal()]
				it.CrashQuota = make([]int, np)
				for crashing := 0; crashing < sh.k; {
					if p := procDeck[name].deal(); it.CrashQuota[p] == 0 {
						it.CrashQuota[p] = sh.q
						crashing++
					}
				}
				req.quotaItems++
			}
			gk := graphKey(name, it.Inputs)
			if !seenGraph[gk] {
				req.first = true
				seenGraph[gk] = true
			}
			req.check.Requests = append(req.check.Requests, it)
			key := checkItemKey(name, it)
			s.items[key] = checkItem{name, it}
			req.keys = append(req.keys, key)
		}
		s.reqs = append(s.reqs, req)
	}
	return s, nil
}

// restartStream generates the restart replay: every distinct analyze key
// of the analyze-n6 stream and every distinct graph key of the
// check-quota stream (as a one-item crash-free check), in a seeded
// permutation. Every request touches a key for the first time since the
// restart, and every key is already on disk.
func restartStream(seed uint64, sz sizes) (*stream, error) {
	an, err := analyzeStream(seed, sz)
	if err != nil {
		return nil, err
	}
	ck, err := checkStream(seed, sz)
	if err != nil {
		return nil, err
	}
	r := &rng{s: seed ^ 0x5e5747}
	s := &stream{types: an.types, protos: ck.protos, items: make(map[string]checkItem),
		protocols: an.protocols, fingerprints: an.fingerprints}
	var pool []request
	seen := make(map[string]bool)
	for _, q := range an.reqs {
		if !seen[q.keys[0]] {
			seen[q.keys[0]] = true
			c := q
			c.first = true
			pool = append(pool, c)
		}
	}
	for _, q := range ck.reqs {
		var name string
		var ins [][]int
		switch q.kind {
		case kindCheck:
			name = q.check.Protocol
			for _, it := range q.check.Requests {
				ins = append(ins, it.Inputs)
			}
		case kindJob:
			name = q.job.Theorem13.Protocol
			ins = append(ins, q.job.Theorem13.Inputs)
		}
		for _, in := range ins {
			gk := graphKey(name, in)
			if seen[gk] {
				continue
			}
			seen[gk] = true
			it := serve.CheckItemRequest{Inputs: in}
			key := checkItemKey(name, it)
			s.items[key] = checkItem{name, it}
			pool = append(pool, request{kind: kindCheck, first: true,
				check: &serve.CheckRequestBody{Protocol: name, Requests: []serve.CheckItemRequest{it}},
				keys:  []string{key}})
		}
	}
	for _, i := range r.perm(len(pool)) {
		s.reqs = append(s.reqs, pool[i])
	}
	return s, nil
}

// describe renders a stream's headline for the report.
func (s *stream) describe() string {
	var kinds [3]int
	for _, r := range s.reqs {
		kinds[r.kind]++
	}
	var parts []string
	for k, c := range kinds {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", c, kind(k)))
		}
	}
	return strings.Join(parts, ", ")
}
