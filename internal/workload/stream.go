package workload

// Stream extends the static Generate → *Log shape to the unbounded,
// closed-loop shape the soak harness and the benchmark drive: an
// infinite, seeded sequence of mixed search/insert/remove operations
// issued by a Zipf-distributed population of a million simulated
// users (the head users dominate the op stream, the long tail appears
// once or twice, like a real web workload).

import (
	"iter"

	"zerberr/internal/corpus"
	"zerberr/internal/stats"
)

// OpKind classifies one streamed operation.
type OpKind uint8

const (
	// OpSearch is a multi-term top-k query.
	OpSearch OpKind = iota
	// OpInsert indexes a fresh synthetic document owned by the user.
	OpInsert
	// OpRemove deletes a document a previous OpInsert of the same user
	// emitted (Op.Doc points at that exact document, so the consumer
	// can correlate by Doc.ID without bookkeeping of its own).
	OpRemove
)

// String names the kind for logs and reports.
func (k OpKind) String() string {
	switch k {
	case OpSearch:
		return "search"
	case OpInsert:
		return "insert"
	case OpRemove:
		return "remove"
	}
	return "unknown"
}

// Op is one operation of the stream.
type Op struct {
	// Seq is the operation's position in the stream.
	Seq uint64
	// User is the simulated user identity issuing the op. Identities
	// are Zipf ranks over the user population: user 0 is the most
	// active.
	User uint64
	// Kind selects which of the following fields is meaningful.
	Kind OpKind
	// Terms is the query (OpSearch).
	Terms []corpus.TermID
	// Doc is the document to index (OpInsert) or the previously
	// inserted document to delete (OpRemove).
	Doc *corpus.Document
}

// StreamConfig is Stream's op mix: the shares of searches, inserts
// and removes. They are normalized if they do not sum to 1, and the
// zero value means 0.90/0.07/0.03. A remove drawn for a user with no
// live inserted documents is emitted as an insert instead, so the
// mutation volume is preserved and every OpRemove targets a document
// that is really live.
type StreamConfig struct {
	SearchFrac, InsertFrac, RemoveFrac float64
}

// The stream's fixed shape.
const (
	// users is the simulated user population.
	users = 1_000_000
	// userZipfS is the user-activity exponent: a few head users issue
	// most of the traffic.
	userZipfS = 1.0
	// docMeanTerms is the mean number of distinct terms per inserted
	// document.
	docMeanTerms = 12
	// maxLiveDocsPerUser bounds the per-user set of removable
	// documents: when full, the oldest tracked document is forgotten
	// (it simply stops being a remove candidate).
	maxLiveDocsPerUser = 32
)

// normalized returns the mix with the zero value's default filled in
// and the shares scaled to sum to 1.
func (cfg StreamConfig) normalized() StreamConfig {
	if cfg.SearchFrac <= 0 && cfg.InsertFrac <= 0 && cfg.RemoveFrac <= 0 {
		cfg = StreamConfig{SearchFrac: 0.90, InsertFrac: 0.07, RemoveFrac: 0.03}
	}
	if sum := cfg.SearchFrac + cfg.InsertFrac + cfg.RemoveFrac; sum > 0 && sum != 1 {
		cfg.SearchFrac /= sum
		cfg.InsertFrac /= sum
		cfg.RemoveFrac /= sum
	}
	return cfg
}

// Stream yields an endless operation stream against the corpus. The
// stream is deterministic per (cfg, seed): two streams built from the
// same arguments yield identical operations, which is what makes a
// soak run reproducible. A user always inserts into group
// user % the corpus's groups, and inserted documents take IDs from
// just past the corpus, so they never collide with indexed ones.
//
// The sequence is single-use and infinite; consumers range and break.
func Stream(c *corpus.Corpus, cfg StreamConfig, seed uint64) iter.Seq[Op] {
	return func(yield func(Op) bool) {
		cfg = cfg.normalized()
		groups := uint64(max(c.Groups, 1))
		g := stats.NewRNG(seed).Split("workload-stream")
		ts := newTermSampler(c, g)
		if !ts.ok() {
			return
		}
		userZ := stats.NewZipf(g, users, userZipfS)
		// live tracks each user's removable documents. Bounded per
		// user; across users it grows with the set of users that ever
		// inserted, which the Zipf head keeps concentrated in practice.
		live := make(map[uint64][]*corpus.Document)
		nextDoc := corpus.DocID(c.NumDocs())
		synth := func(user uint64) *corpus.Document {
			n := queryLength(g, docMeanTerms)
			terms := ts.draw(n)
			tf := make(map[corpus.TermID]int, len(terms))
			total := 0
			for _, t := range terms {
				f := 1 + g.Intn(4)
				tf[t] = f
				total += f
			}
			d := &corpus.Document{
				ID:     nextDoc,
				Group:  int(user % groups),
				Length: total * 25, // plausible NormTF normalizer
				TF:     tf,
			}
			nextDoc++
			return d
		}
		insert := func(user uint64) Op {
			d := synth(user)
			docs := append(live[user], d)
			if len(docs) > maxLiveDocsPerUser {
				docs = docs[1:] // forget the oldest remove candidate
			}
			live[user] = docs
			return Op{User: user, Kind: OpInsert, Doc: d}
		}
		for seq := uint64(0); ; seq++ {
			user := uint64(userZ.Next())
			r := g.Float64()
			var op Op
			switch {
			case r < cfg.SearchFrac:
				op = Op{User: user, Kind: OpSearch, Terms: ts.draw(queryLength(g, meanTerms))}
			case r < cfg.SearchFrac+cfg.InsertFrac:
				op = insert(user)
			default:
				docs := live[user]
				if len(docs) == 0 {
					// Nothing of this user's to remove yet: keep the
					// mutation budget by inserting instead.
					op = insert(user)
					break
				}
				i := g.Intn(len(docs))
				d := docs[i]
				live[user] = append(docs[:i:i], docs[i+1:]...)
				op = Op{User: user, Kind: OpRemove, Doc: d}
			}
			op.Seq = seq
			if !yield(op) {
				return
			}
		}
	}
}
