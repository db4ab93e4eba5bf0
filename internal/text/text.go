// Package text provides the lightweight text-analysis substrate used
// when indexing real documents through the CLI: tokenization,
// case folding and stopword removal. The synthetic corpora used by the
// experiment harness bypass this package entirely.
package text

import (
	"strings"
	"unicode"
)

// Tokenizer turns raw text into index terms: it lowercases, splits on
// any rune that is neither a letter nor a digit, drops tokens outside
// [MinLen, MaxLen] and removes stopwords.
type Tokenizer struct {
	// MinLen and MaxLen bound accepted token lengths in runes.
	// Zero values default to 2 and 40.
	MinLen, MaxLen int
	// Stopwords are dropped after lowercasing. Nil means no stopword
	// filtering; DefaultStopwords provides a small English list.
	Stopwords map[string]bool
}

// NewTokenizer returns a Tokenizer with default limits and the default
// English stopword list.
func NewTokenizer() *Tokenizer {
	return &Tokenizer{MinLen: 2, MaxLen: 40, Stopwords: DefaultStopwords()}
}

// Analyze returns the terms of the given text, in order of
// appearance, after normalization and filtering.
func (t *Tokenizer) Analyze(text string) []string {
	minLen := t.MinLen
	if minLen == 0 {
		minLen = 2
	}
	maxLen := t.MaxLen
	if maxLen == 0 {
		maxLen = 40
	}
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		n := len([]rune(tok))
		if n < minLen || n > maxLen {
			return
		}
		if t.Stopwords != nil && t.Stopwords[tok] {
			return
		}
		out = append(out, tok)
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// DefaultStopwords returns a fresh copy of a small English stopword
// set. Callers may mutate the returned map freely.
func DefaultStopwords() map[string]bool {
	words := []string{
		"a", "an", "and", "are", "as", "at", "be", "but", "by", "for",
		"if", "in", "into", "is", "it", "no", "not", "of", "on", "or",
		"such", "that", "the", "their", "then", "there", "these",
		"they", "this", "to", "was", "will", "with",
	}
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}
