package corpus

import "zerberr/internal/text"

// RawDoc is an un-analyzed input document for ingestion.
type RawDoc struct {
	Text  string
	Group int
}

// Ingest builds a corpus from raw documents with text.NewTokenizer().
// Term IDs are assigned in first-seen order. This path backs the CLI
// (cmd/zerber); the experiment harness and the examples use Generate
// instead.
func Ingest(docs []RawDoc) *Corpus {
	an := text.NewTokenizer()
	c := &Corpus{}
	ids := make(map[string]TermID)
	groups := 0
	for i, rd := range docs {
		tokens := an.Analyze(rd.Text)
		tf := make(map[TermID]int, len(tokens))
		for _, tok := range tokens {
			id, ok := ids[tok]
			if !ok {
				id = TermID(len(c.names))
				ids[tok] = id
				c.names = append(c.names, tok)
			}
			tf[id]++
		}
		if rd.Group+1 > groups {
			groups = rd.Group + 1
		}
		c.Docs = append(c.Docs, &Document{
			ID:     DocID(i),
			Group:  rd.Group,
			Length: len(tokens),
			TF:     tf,
		})
	}
	c.VocabSize = len(c.names)
	c.Groups = groups
	return c
}
