package main

import "math/rand"

// deck deals operation kinds in blocks of 100 that hold exactly the mix's
// percentages, each block shuffled by the seeded generator. Every seed then
// runs the same mix to the percent; only the order and the keys differ, so
// the cost of a run does not swing with how many expensive operations a seed
// happened to draw.
type deck struct {
	rng   *rand.Rand
	block []int
	pos   int
}

// newDeck takes the percentage of each kind; they must sum to 100.
func newDeck(rng *rand.Rand, pcts ...int) *deck {
	d := &deck{rng: rng}
	for kind, pct := range pcts {
		for i := 0; i < pct; i++ {
			d.block = append(d.block, kind)
		}
	}
	if len(d.block) != 100 {
		panic("deck: percentages do not sum to 100")
	}
	d.pos = len(d.block)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.block) {
		d.rng.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
		d.pos = 0
	}
	d.pos++
	return d.block[d.pos-1]
}
