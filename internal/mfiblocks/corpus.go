package mfiblocks

import (
	"fmt"

	"repro/internal/fpgrowth"
	"repro/internal/record"
)

// Corpus is the encoded form the blocking engine actually operates on:
// the item dictionary, the per-record transactions in flat arena form,
// and the BookID of each transaction. It decouples the engine from
// record.Collection so a streaming caller can assemble it incrementally
// (interning items record by record, then dropping the raw records) while
// batch callers keep the one-shot Run entry point.
type Corpus struct {
	// Dict maps item keys to the dense ids Txns uses.
	Dict *record.Dictionary
	// Txns holds one sorted, deduplicated item-id transaction per record
	// in a flat int32 arena (one allocation, cache-linear scans), indexed
	// by the same position as BookIDs. Append grows it record by record.
	Txns *fpgrowth.Transactions
	// BookIDs gives each transaction's report identifier — the values
	// candidate pairs are expressed in.
	BookIDs []int64
	// Records optionally carries the raw records, positionally aligned
	// with Txns. Required only by ExpertSim scoring, which compares
	// item values; a streaming caller that sticks to the default
	// itemset-Jaccard score leaves it nil and the engine never touches
	// record values.
	Records []*record.Record
}

// NewCorpus encodes a collection in one pass — the same
// Append(Dict.Observe(r), r.BookID) loop the pipeline's ingest stage runs
// record by record — exposed so callers can share one encoding across
// several engine invocations.
func NewCorpus(coll *record.Collection) *Corpus {
	n := coll.Len()
	c := &Corpus{
		Dict:    record.NewDictionary(),
		Txns:    fpgrowth.NewTransactions(n, 0),
		BookIDs: make([]int64, 0, n),
		Records: coll.Records,
	}
	for _, r := range coll.Records {
		c.Append(c.Dict.Observe(r), r.BookID)
	}
	return c
}

// Append adds one encoded transaction and its report identifier — the
// incremental assembly step streaming ingest drives per record.
func (c *Corpus) Append(txn []int, bookID int64) {
	if c.Txns == nil {
		c.Txns = fpgrowth.NewTransactions(0, 0)
	}
	c.Txns.Append(txn)
	c.BookIDs = append(c.BookIDs, bookID)
}

// Len returns the number of transactions.
func (c *Corpus) Len() int { return c.Txns.Len() }

// validate reports the first structural problem with the corpus.
func (c *Corpus) validate() error {
	switch {
	case c.Dict == nil:
		return fmt.Errorf("mfiblocks: corpus has no dictionary")
	case c.Txns.Len() != len(c.BookIDs):
		return fmt.Errorf("mfiblocks: corpus has %d transactions but %d book ids", c.Txns.Len(), len(c.BookIDs))
	case c.Records != nil && len(c.Records) != c.Txns.Len():
		return fmt.Errorf("mfiblocks: corpus has %d transactions but %d records", c.Txns.Len(), len(c.Records))
	}
	return nil
}
