// Package oql implements the OQL subset that DISCO uses: select-from-where
// over extents, struct construction, bag/list/set literals, aggregates,
// union/flatten, views (define ... as ...) and the DISCO extension T* for
// subtype-extent closure (paper §2).
//
// The package contains a lexer, a recursive-descent parser, a canonical
// printer (every AST prints back to parseable OQL — the closure property
// partial answers depend on, paper §4), the closure compiler the runtime
// evaluates scalar expressions with (Compile), and the tree-walking
// evaluator the tests use as its executable specification (Eval).
package oql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokPunct // operators and delimiters
)

// token is one lexical token with its source offset (used for adjacency
// checks and error positions).
type token struct {
	kind tokenKind
	text string
	off  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords are reserved words. Function-like forms (union, flatten, bag,
// count, ...) are deliberately not keywords; they parse as calls.
var keywords = map[string]bool{
	"select": true, "from": true, "in": true, "where": true,
	"and": true, "or": true, "not": true,
	"define": true, "as": true, "distinct": true,
	"true": true, "false": true, "nil": true,
}

// SyntaxError is a lexical or grammatical error with its byte offset.
type SyntaxError struct {
	Off int
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("oql: offset %d: %s", e.Off, e.Msg)
}

// lexer splits input into tokens.
type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, off: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if keywords[strings.ToLower(text)] {
			return token{kind: tokKeyword, text: strings.ToLower(text), off: start}, nil
		}
		return token{kind: tokIdent, text: text, off: start}, nil
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case c == '"':
		return l.lexString()
	default:
		return l.lexPunct()
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			// Line comment, SQL/OQL style.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	kind := tokInt
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		kind = tokFloat
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		mark := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			kind = tokFloat
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
		} else {
			l.pos = mark // the e belongs to a following identifier
		}
	}
	return token{kind: kind, text: l.src[start:l.pos], off: start}, nil
}

// lexString scans a double-quoted literal and decodes it with
// strconv.Unquote, so every escape form strconv.Quote can emit parses back
// — the closure property requires print(parse(s)) to round trip even for
// control characters and non-ASCII text.
func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, &SyntaxError{Off: l.pos, Msg: "unterminated escape"}
			}
			l.pos += 2
		case '"':
			l.pos++
			text, err := strconv.Unquote(l.src[start:l.pos])
			if err != nil {
				return token{}, &SyntaxError{Off: start, Msg: fmt.Sprintf("bad string literal: %v", err)}
			}
			return token{kind: tokString, text: text, off: start}, nil
		default:
			l.pos++
		}
	}
	return token{}, &SyntaxError{Off: start, Msg: "unterminated string literal"}
}

// twoCharPuncts lists the multi-character operators, longest first.
var twoCharPuncts = []string{"<=", ">=", "!=", "<>", ":="}

func (l *lexer) lexPunct() (token, error) {
	start := l.pos
	for _, p := range twoCharPuncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.pos += len(p)
			return token{kind: tokPunct, text: p, off: start}, nil
		}
	}
	switch c := l.src[l.pos]; c {
	case '(', ')', ',', '.', ';', ':', '=', '<', '>', '+', '-', '*', '/':
		l.pos++
		return token{kind: tokPunct, text: string(c), off: start}, nil
	default:
		return token{}, &SyntaxError{Off: start, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
}

// tokenize lexes the whole input.
func tokenize(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// isIdentPart accepts '@' inside (not starting) an identifier: extent@repo
// names one shard of a horizontally partitioned extent, and residual queries
// over partitioned extents must round-trip through the parser.
func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '@'
}
