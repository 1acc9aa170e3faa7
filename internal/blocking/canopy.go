package blocking

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/record"
)

// Canopy is CaCl: canopy clustering (McCallum et al. 2000). A random seed
// record is drawn from the candidate pool; records within the loose
// similarity threshold of the seed form a block, and those within the
// tight threshold leave the pool, yielding inherently non-overlapping
// block cores. Candidate retrieval uses a q-gram index, as in the survey's
// setup.
type Canopy struct {
	// Loose and Tight are the two similarity thresholds (token Jaccard
	// over item keys); survey-style defaults 0.3 and 0.6.
	Loose, Tight float64
	// Seed fixes the sampling order for reproducibility.
	Seed int64
}

// Name implements Blocker.
func (Canopy) Name() string { return "CaCl" }

// Block implements Blocker.
func (c Canopy) Block(coll *record.Collection) []Block {
	loose, tight := c.thresholds()
	rng := rand.New(rand.NewSource(c.Seed + 1))
	n := coll.Len()

	keys := make([][]string, n)
	for i, r := range coll.Records {
		keys[i] = r.Keys()
	}
	// q-gram candidate index over item keys.
	index := make(map[string][]int)
	for i, ks := range keys {
		for _, k := range ks {
			index[k] = append(index[k], i)
		}
	}

	inPool := make([]bool, n)
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
		inPool[i] = true
	}
	var blocks []Block
	mark := make([]int, n)
	var cands []int
	for len(pool) > 0 {
		pi := rng.Intn(len(pool))
		seed := pool[pi]

		// Candidates: records sharing any item with the seed, in ascending
		// index order. The seed leads its block, so it is the canopy's
		// representative (ExtendedCanopy compares against Members[0]).
		// mark[j] == seed+1 once j is a candidate of this seed (a record is
		// drawn as seed at most once).
		cands = cands[:0]
		for _, k := range keys[seed] {
			for _, j := range index[k] {
				if j != seed && mark[j] != seed+1 {
					mark[j] = seed + 1
					cands = append(cands, j)
				}
			}
		}
		slices.Sort(cands)
		members := []int{seed}
		tightMembers := []int{seed}
		for _, j := range cands {
			if sim := jaccardStrings(keys[seed], keys[j]); sim >= loose {
				members = append(members, j)
				if sim >= tight {
					tightMembers = append(tightMembers, j)
				}
			}
		}
		if len(members) >= 2 {
			blocks = append(blocks, Block{Key: fmt.Sprintf("canopy@%d", seed), Members: members})
		}
		// Remove tight members (always including the seed) from the pool.
		for _, j := range tightMembers {
			inPool[j] = false
		}
		next := pool[:0]
		for _, j := range pool {
			if inPool[j] {
				next = append(next, j)
			}
		}
		pool = next
	}
	return purge(blocks, n)
}

func (c Canopy) thresholds() (loose, tight float64) {
	loose, tight = c.Loose, c.Tight
	if loose <= 0 {
		loose = 0.3
	}
	if tight <= 0 {
		tight = 0.6
	}
	if tight < loose {
		tight = loose
	}
	return loose, tight
}

// ExtendedCanopy is ECaCl: canopy clustering followed by assigning every
// record left blockless to its most similar existing block (Christen
// 2012).
type ExtendedCanopy struct {
	Canopy
}

// Name implements Blocker.
func (ExtendedCanopy) Name() string { return "ECaCl" }

// Block implements Blocker.
func (e ExtendedCanopy) Block(coll *record.Collection) []Block {
	blocks := e.Canopy.Block(coll)
	n := coll.Len()
	assigned := make([]bool, n)
	for _, b := range blocks {
		for _, m := range b.Members {
			assigned[m] = true
		}
	}
	keys := make([][]string, n)
	for i, r := range coll.Records {
		keys[i] = r.Keys()
	}
	for i := 0; i < n; i++ {
		if assigned[i] || len(blocks) == 0 {
			continue
		}
		best, bestSim := -1, -1.0
		for bi := range blocks {
			rep := blocks[bi].Members[0] // the canopy's seed
			if sim := jaccardStrings(keys[i], keys[rep]); sim > bestSim {
				best, bestSim = bi, sim
			}
		}
		blocks[best].Members = append(blocks[best].Members, i)
	}
	return purge(blocks, n)
}

// jaccardStrings is the token Jaccard over two sorted string sets.
func jaccardStrings(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
