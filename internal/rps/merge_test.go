package rps

import (
	"math/bits"
	"slices"
	"testing"

	"polystyrene/internal/sim"
	"polystyrene/internal/xrand"
)

// searchMerge is merge as it was written before the slot mask: once the
// view is full, it searches the view, from the slot after its last
// replacement, for the next entry whose id is among the sent entries. It
// is the reference the mask merge must match slot for slot.
func searchMerge(p *Protocol, owner sim.NodeID, received, sent []entry) {
	view := p.view(owner)
	sentIdx := 0
	for _, en := range received {
		if sim.NodeID(en.id) == owner || viewContains(view, sim.NodeID(en.id)) {
			continue
		}
		if len(view) < viewSize {
			view = append(view, en)
			continue
		}
		// Replace one of the entries we sent away, if any remain.
		replaced := false
		for ; sentIdx < len(view); sentIdx++ {
			if viewContains(sent, sim.NodeID(view[sentIdx].id)) {
				view[sentIdx] = en
				sentIdx++
				replaced = true
				break
			}
		}
		if !replaced {
			break // view full and nothing left to replace
		}
	}
	p.lens[owner] = uint8(len(view))
}

// cloneViews returns a protocol holding a copy of p's views.
func cloneViews(p *Protocol) *Protocol {
	c := &Protocol{lens: slices.Clone(p.lens), ws: make([]scratch, 1)}
	for _, pg := range p.pages {
		cp := *pg
		c.pages = append(c.pages, &cp)
	}
	return c
}

// TestMaskMergeMatchesSearch pins merge to searchMerge on random views:
// full, partial and purged (short) ones, each sampled by sampleForShuffle
// as the initiator (with its self-descriptor appended to what it sent) or
// as the partner (whose view may hold the initiator), then merged with a
// received list whose ids collide with the view, with the owner and with
// each other. It also checks that the returned mask names exactly the
// slots of the sampled entries.
func TestMaskMergeMatchesSearch(t *testing.T) {
	const n = 64
	e, p := newNetwork(t, 7, n)
	e.RunRounds(3)
	ctx := e.SeqCtx()
	rng := xrand.New(11)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	var buf []entry
	for trial := 0; trial < 5000; trial++ {
		owner := sim.NodeID(rng.Intn(n))
		ln := viewSize
		if rng.Intn(2) == 0 {
			ln = rng.Intn(viewSize + 1)
		}
		rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		view := p.pages[owner/pageRows][owner%pageRows][:0]
		for _, id := range ids {
			if len(view) == ln {
				break
			}
			if sim.NodeID(id) != owner {
				view = append(view, entry{id: id, age: int32(rng.Intn(8))})
			}
		}
		p.lens[owner] = uint8(len(view))

		initiator := rng.Intn(2) == 0
		var peer sim.NodeID
		switch {
		case initiator || len(view) == 0 || rng.Intn(2) == 0:
			// The initiator removed its partner before sampling.
			peer = sim.NodeID(ids[n-1])
			if peer == owner {
				peer = sim.NodeID(ids[n-2])
			}
		default:
			peer = sim.NodeID(view[rng.Intn(len(view))].id)
		}
		size := shuffleLen
		if initiator {
			size = shuffleLen - 1
		}
		sent, mask := p.sampleForShuffle(ctx, p.scr(0), owner, peer, size, &buf)
		buf = sent
		var inMask []entry
		for m := mask; m != 0; m &= m - 1 {
			inMask = append(inMask, view[bits.TrailingZeros32(m)])
		}
		byID := func(a, b entry) int { return int(a.id - b.id) }
		if !slices.Equal(slices.SortedFunc(slices.Values(sent), byID), slices.SortedFunc(slices.Values(inMask), byID)) {
			t.Fatalf("trial %d: sampled %v, mask %032b names %v", trial, sent, mask, inMask)
		}
		sent = slices.Clone(sent)
		if initiator {
			sent = append(sent, entry{id: int32(owner)})
		}

		received := make([]entry, rng.Intn(shuffleLen+1))
		for i := range received {
			switch r := rng.Intn(8); {
			case r == 0:
				received[i] = entry{id: int32(owner)}
			case r == 1 && i > 0:
				received[i] = received[rng.Intn(i)]
			default:
				received[i] = entry{id: int32(rng.Intn(n)), age: int32(rng.Intn(8))}
			}
		}

		ref := cloneViews(p)
		p.merge(owner, received, mask)
		searchMerge(ref, owner, received, sent)
		if got, want := p.view(owner), ref.view(owner); !slices.Equal(got, want) {
			t.Fatalf("trial %d: owner %d (initiator %v) sent %v, received %v:\nmask merge   %v\nsearch merge %v",
				trial, owner, initiator, sent, received, got, want)
		}
	}
}
