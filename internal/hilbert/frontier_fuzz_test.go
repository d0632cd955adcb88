package hilbert

import (
	"sort"
	"testing"
)

// FuzzFrontierResume drives the resumable descent through randomized
// interrupt-and-resume schedules: a descent is run at a strong threshold,
// its pruned frontier is resumed at an intermediate threshold (growing
// the frontier further), and resumed again at the final threshold. The
// accumulated leaf sequence must equal a single fresh descent at the
// final threshold, whatever the curve geometry or pruning pattern.
func FuzzFrontierResume(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(7), uint64(1))
	f.Add(uint8(2), uint8(4), uint8(8), uint64(42))
	f.Add(uint8(5), uint8(2), uint8(9), uint64(7))
	f.Add(uint8(1), uint8(5), uint8(5), uint64(99))
	f.Fuzz(func(t *testing.T, dimsRaw, orderRaw, depthRaw uint8, seed uint64) {
		dims := int(dimsRaw)%5 + 1
		order := int(orderRaw)%4 + 1
		c := MustNew(dims, order)
		maxDepth := c.IndexBits()
		if maxDepth > 12 {
			maxDepth = 12
		}
		depth := int(depthRaw)%maxDepth + 1
		side := c.SideLen()

		// Three thresholds derived from the seed, strongest first. Scores
		// are products of power-of-two factors (see hashFactor), so exact
		// threshold values do not matter for determinism.
		ts := []float64{
			1 / float64(uint64(1)<<(seed%6+1)),
			1 / float64(uint64(1)<<(seed%6+3)),
			1 / float64(uint64(1)<<(seed%6+6)),
		}
		tFinal := ts[len(ts)-1]

		fd := c.NewFrontierDescent()
		root := c.RootNode()
		var frontier []Node
		capture := func(n *Node) {
			frontier = append(frontier, CopyNode(n, make([]uint32, 2*dims)))
		}

		// Interrupted schedule: descend at ts[0], then resume the live
		// frontier at each weaker threshold in turn.
		first := newScoreVisitor(dims, seed, ts[0])
		fd.Descend(&root, depth, first, capture)
		leaves := append([]keyRange(nil), first.leaves...)
		for _, tr := range ts[1:] {
			pending := frontier
			frontier = nil
			for i := range pending {
				n := &pending[i]
				v := newScoreVisitor(dims, seed, tr)
				v.reseed(n, side)
				if v.prod <= tr {
					frontier = append(frontier, *n) // still pruned, keep for later
					continue
				}
				fd.Descend(n, depth, v, capture)
				leaves = append(leaves, v.leaves...)
			}
		}
		sort.Slice(leaves, func(i, j int) bool { return leaves[i].Start.Cmp(leaves[j].Start) < 0 })

		// Fresh descent at the final threshold.
		fresh := newScoreVisitor(dims, seed, tFinal)
		fd.Descend(&root, depth, fresh, nil)

		if len(leaves) != len(fresh.leaves) {
			t.Fatalf("dims=%d order=%d depth=%d seed=%d: resumed %d leaves, fresh %d",
				dims, order, depth, seed, len(leaves), len(fresh.leaves))
		}
		for i := range leaves {
			if leaves[i] != fresh.leaves[i] {
				t.Fatalf("dims=%d order=%d depth=%d seed=%d: leaf %d differs",
					dims, order, depth, seed, i)
			}
		}
	})
}
