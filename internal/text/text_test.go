package text

import (
	"reflect"
	"testing"
)

func TestTokenizerBasic(t *testing.T) {
	tok := NewTokenizer()
	got := tok.Analyze("Hello, World! hello-again")
	want := []string{"hello", "world", "hello", "again"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %v, want %v", got, want)
	}
}

func TestTokenizerStopwords(t *testing.T) {
	tok := NewTokenizer()
	got := tok.Analyze("the quick brown fox and the lazy dog")
	want := []string{"quick", "brown", "fox", "lazy", "dog"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %v, want %v", got, want)
	}
}

func TestTokenizerNoStopwords(t *testing.T) {
	tok := &Tokenizer{}
	got := tok.Analyze("the cat")
	want := []string{"the", "cat"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %v, want %v", got, want)
	}
}

func TestTokenizerLengthLimits(t *testing.T) {
	tok := &Tokenizer{MinLen: 3, MaxLen: 5}
	got := tok.Analyze("ab abc abcde abcdef x")
	want := []string{"abc", "abcde"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %v, want %v", got, want)
	}
}

func TestTokenizerUnicode(t *testing.T) {
	tok := &Tokenizer{}
	got := tok.Analyze("Vergütung zählt! ÜBER")
	want := []string{"vergütung", "zählt", "über"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %v, want %v", got, want)
	}
}

func TestTokenizerDigits(t *testing.T) {
	tok := &Tokenizer{}
	got := tok.Analyze("rev2 2024 x1")
	want := []string{"rev2", "2024", "x1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %v, want %v", got, want)
	}
}

func TestTokenizerEmpty(t *testing.T) {
	tok := NewTokenizer()
	if got := tok.Analyze(""); len(got) != 0 {
		t.Fatalf("Analyze(\"\") = %v, want empty", got)
	}
	if got := tok.Analyze("!!! ---"); len(got) != 0 {
		t.Fatalf("Analyze(punct) = %v, want empty", got)
	}
}

func TestDefaultStopwordsIsCopy(t *testing.T) {
	a := DefaultStopwords()
	a["zzz"] = true
	b := DefaultStopwords()
	if b["zzz"] {
		t.Fatal("DefaultStopwords returned shared state")
	}
}
