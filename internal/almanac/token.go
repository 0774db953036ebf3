// Package almanac implements the automata language for network
// management and monitoring code (Almanac, §III of the FARM paper):
// lexer, parser, semantic analysis, the static analyses that feed the
// placement optimizer (placement directives, utility polynomials,
// polling subjects), and the XML wire format the seeder ships compiled
// machines in.
package almanac

import "fmt"

// TokenKind classifies lexical tokens.
type TokenKind int

const (
	tokEOF TokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString

	// punctuation
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokSemicolon
	tokComma
	tokDot
	tokAt
	tokAssign // =

	// operators
	tokEq  // ==
	tokNeq // <>
	tokLe  // <=
	tokGe  // >=
	tokLt  // <
	tokGt  // >
	tokPlus
	tokMinus
	tokStar
	tokSlash

	// keywords
	tokMachine
	tokExtends
	tokState
	tokPlace
	tokAll
	tokAny
	tokUtil
	tokWhen
	tokDo
	tokIf
	tokThen
	tokElse
	tokWhile
	tokReturn
	tokTransit
	tokSend
	tokTo
	tokRecv
	tokFrom
	tokHarvester
	tokExternal
	tokAs
	tokEnter
	tokExit
	tokRealloc
	tokAnd
	tokOr
	tokNot
	tokTrue
	tokFalse
	tokFunction
	tokStruct
	tokSender
	tokReceiver
	tokMidpoint
	tokRange

	// type keywords
	tokTypeBool
	tokTypeInt
	tokTypeLong
	tokTypeFloat
	tokTypeString
	tokTypeList
	tokTypeMap
	tokTypePacket
	tokTypeAction
	tokTypeFilter

	// trigger type keywords
	tokTime
	tokPoll
	tokProbe

	// filter field keywords
	tokSrcIP
	tokDstIP
	tokSrcPort
	tokDstPort
	tokPort
	tokProto
	tokAnyCap // ANY
)

var keywords = map[string]TokenKind{
	"machine":   tokMachine,
	"extends":   tokExtends,
	"state":     tokState,
	"place":     tokPlace,
	"all":       tokAll,
	"any":       tokAny,
	"util":      tokUtil,
	"when":      tokWhen,
	"do":        tokDo,
	"if":        tokIf,
	"then":      tokThen,
	"else":      tokElse,
	"while":     tokWhile,
	"return":    tokReturn,
	"transit":   tokTransit,
	"send":      tokSend,
	"to":        tokTo,
	"recv":      tokRecv,
	"from":      tokFrom,
	"harvester": tokHarvester,
	"external":  tokExternal,
	"as":        tokAs,
	"enter":     tokEnter,
	"exit":      tokExit,
	"realloc":   tokRealloc,
	"and":       tokAnd,
	"or":        tokOr,
	"not":       tokNot,
	"true":      tokTrue,
	"false":     tokFalse,
	"function":  tokFunction,
	"struct":    tokStruct,
	"sender":    tokSender,
	"receiver":  tokReceiver,
	"midpoint":  tokMidpoint,
	"range":     tokRange,
	"bool":      tokTypeBool,
	"int":       tokTypeInt,
	"long":      tokTypeLong,
	"float":     tokTypeFloat,
	"string":    tokTypeString,
	"list":      tokTypeList,
	"map":       tokTypeMap,
	"packet":    tokTypePacket,
	"action":    tokTypeAction,
	"filter":    tokTypeFilter,
	"time":      tokTime,
	"poll":      tokPoll,
	"probe":     tokProbe,
	"srcIP":     tokSrcIP,
	"dstIP":     tokDstIP,
	"srcPort":   tokSrcPort,
	"dstPort":   tokDstPort,
	"port":      tokPort,
	"proto":     tokProto,
	"ANY":       tokAnyCap,
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// SyntaxError is a lexing or parsing error with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("almanac: %d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
