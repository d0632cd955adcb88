package hilbert

import "testing"

// TestSplitNodeEnumeratesDescendBlocks expands the explicit node tree
// down to depth p and checks it produces exactly the blocks of Descend.
func TestSplitNodeEnumeratesDescendBlocks(t *testing.T) {
	configs := [][2]int{{2, 4}, {3, 3}, {4, 2}}
	for _, cfg := range configs {
		c := MustNew(cfg[0], cfg[1])
		for p := 1; p <= c.IndexBits(); p += 2 {
			want := collectBlocks(c, p, nil)
			var leaves []Node
			var expand func(n Node)
			expand = func(n Node) {
				if n.Bits == p {
					leaves = append(leaves, n)
					return
				}
				for _, ch := range c.SplitNode(n) {
					expand(ch)
				}
			}
			expand(c.RootNode())
			if len(leaves) != len(want) {
				t.Fatalf("D=%d K=%d p=%d: %d leaves, want %d", cfg[0], cfg[1], p, len(leaves), len(want))
			}
			for i, n := range leaves {
				if n.Start != want[i].start {
					t.Fatalf("leaf %d starts at %v, want %v", i, n.Start, want[i].start)
				}
				if b := c.NodeBlock(n); b != uint64(i) || want[i].index != uint64(i) {
					t.Fatalf("leaf %d: node block %d, descent block %d", i, b, want[i].index)
				}
				for j := range n.Lo {
					if n.Lo[j] != want[i].lo[j] || n.Hi[j] != want[i].hi[j] {
						t.Fatalf("leaf %d bounds differ at dim %d", i, j)
					}
				}
			}
		}
	}
}

func TestSplitNodeChildrenOwnBounds(t *testing.T) {
	c := MustNew(3, 3)
	root := c.RootNode()
	kids := c.SplitNode(root)
	kids[0].Lo[0] = 99
	if root.Lo[0] == 99 || kids[1].Lo[0] == 99 {
		t.Fatal("children alias bounds")
	}
}

func TestSplitNodePanicsAtMaxDepth(t *testing.T) {
	c := MustNew(2, 2)
	n := c.RootNode()
	for n.Bits < c.IndexBits() {
		n = c.SplitNode(n)[0]
	}
	assertPanics(t, func() { c.SplitNode(n) })
}
