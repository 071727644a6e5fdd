package pairs

import "repro/internal/par"

// StreamOptions configures one ScoreLists run.
type StreamOptions struct {
	// Targets lists the v-pins to score; nil scores every v-pin of the
	// instance. Candidates are always drawn from the whole design.
	Targets []int
	// Cap bounds each retained candidate list (see LoCCap and any absolute
	// cap the caller layers on top). Values below 1 are clamped to 1.
	Cap int
	// ShardVpins is the region size: how many v-pins one worker streams
	// before claiming the next region. Zero picks a size that gives every
	// worker several regions (for load balance) while keeping regions large
	// enough that the per-region arena amortises. The retained lists are
	// bit-identical for every shard size.
	ShardVpins int
	// Workers bounds the scoring goroutines; zero or negative selects
	// GOMAXPROCS. Results are bit-identical at any worker count.
	Workers int
	// Stride is the feature-row width each worker's Gatherer uses; zero
	// selects features.NumFeatures. Callers whose feature set reaches into
	// the routing-hint block pass features.Width of their set.
	Stride int
	// Visit, when non-nil, observes every scored arena before retention:
	// it is called once per target v-pin with the gathered ids, distances,
	// and probabilities. Calls happen concurrently for different v-pins but
	// never for the same one, so a Visit writing to per-v-pin slots needs no
	// locking. The Gatherer is reused immediately after Visit returns.
	Visit func(a int, g *Gatherer)
}

// StreamStats reports what one ScoreLists run did.
type StreamStats struct {
	// Pairs counts the candidate pairs scored through the backend.
	Pairs int64
	// Batches and BatchRows count ProbBatch calls and their rows (zero on
	// the scalar path).
	Batches, BatchRows int64
	// Regions is the number of spatial shards the targets were split into.
	Regions int
	// Retained counts the candidates kept across all lists after the cap.
	Retained int64
}

// ScoreLists is the shared candidate-scoring engine: it streams the target
// v-pins through the filter and backend one spatial region at a time and
// returns the per-v-pin retained candidate lists in canonical
// CompareCandidates order. Both the attack engine's scoring stage and the
// two-level training stage ride this one implementation.
//
// Memory is bounded by region, not by design: each worker owns one reusable
// Gatherer arena and one reusable TopK heap, and packs the retained lists of
// its current region into a single per-region arena (one allocation per
// region instead of one per v-pin). Retention is order-free — TopK keeps
// exactly the first Cap entries of the canonical total order no matter the
// push order — so the returned lists are bit-identical at any worker count
// and any shard size.
func ScoreLists(f Filter, backend Backend, opts StreamOptions) ([][]Candidate, StreamStats) {
	inst := f.Instance()
	n := inst.N()
	lists := make([][]Candidate, n)
	total := n
	if opts.Targets != nil {
		total = len(opts.Targets)
	}
	if total == 0 {
		return lists, StreamStats{}
	}
	capPer := opts.Cap
	if capPer < 1 {
		capPer = 1
	}
	workers := par.Workers(opts.Workers, total)
	regions := inst.ix.regions(opts.Targets, shardSize(opts.ShardVpins, total, workers))
	stats := StreamStats{Regions: len(regions)}
	workers = par.Workers(workers, len(regions))

	// spans defers list fix-up to the end of a region: the arena may
	// reallocate while the region streams, so slices into it are only taken
	// once its length is final.
	type span struct{ a, lo, hi int }
	type workerState struct {
		g            Gatherer
		h            TopK
		spans        []span
		arenaHint    int
		scored, kept int64
	}
	ws := make([]workerState, workers)
	for w := range ws {
		ws[w].g.Stride = opts.Stride
	}
	par.For(len(regions), workers, func(worker, ri int) {
		w := &ws[worker]
		arena := make([]Candidate, 0, w.arenaHint)
		w.spans = w.spans[:0]
		for _, a32 := range regions[ri] {
			a := int(a32)
			w.h.Reset(capPer)
			w.g.Gather(f, a)
			w.g.Score(backend)
			w.scored += int64(len(w.g.Ids))
			if opts.Visit != nil {
				opts.Visit(a, &w.g)
			}
			for k, b := range w.g.Ids {
				w.h.Push(Candidate{Other: b, P: float32(w.g.P[k]), D: w.g.D[k]})
			}
			lo := len(arena)
			arena = append(arena, w.h.Sorted()...)
			w.spans = append(w.spans, span{a: a, lo: lo, hi: len(arena)})
		}
		for _, sp := range w.spans {
			lists[sp.a] = arena[sp.lo:sp.hi:sp.hi]
		}
		w.kept += int64(len(arena))
		if len(arena) > w.arenaHint {
			w.arenaHint = len(arena)
		}
	})
	for i := range ws {
		w := &ws[i]
		stats.Pairs += w.scored
		stats.Batches += w.g.Batches
		stats.BatchRows += w.g.BatchRows
		stats.Retained += w.kept
	}
	return lists, stats
}

// shardSize resolves the region size: the explicit request when positive,
// otherwise a size giving each worker about four regions — small enough to
// balance uneven regions across workers, large enough that the per-region
// arena allocation amortises — clamped to [16, 2048] v-pins.
func shardSize(requested, total, workers int) int {
	if requested > 0 {
		return requested
	}
	size := (total + 4*workers - 1) / (4 * workers)
	if size < 16 {
		size = 16
	}
	if size > 2048 {
		size = 2048
	}
	return size
}
