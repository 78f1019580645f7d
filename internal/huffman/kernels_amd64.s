#include "go_asm.h"
#include "textflag.h"

// The wide decode kernels keep, for stream k, its bit container in R8+k
// and its output cursor in SI, DI, R12, R13; BX holds the decode table and
// CX 64 − tableBits. A container is the next 64 stream bits but one, loaded
// big-endian, with a 1 below them: the marker. Consuming n bits shifts the
// container left by n, so the marker's position (TZCNTQ) counts the bits
// consumed since the load, and the bits above it are the valid ones, at
// least 56 right after a refill. A stream's input position lives in its
// frame slot. A kernel decodes rounds steps from each stream between
// refills; each step takes at most maxLen bits, so every probe reads valid
// bits only.

#define PTR0 0(SP)
#define PTR1 8(SP)
#define PTR2 16(SP)
#define PTR3 24(SP)
#define LIM0 32(SP)
#define LIM1 40(SP)
#define LIM2 48(SP)
#define LIM3 56(SP)
#define OEND0 64(SP)
#define OEND1 72(SP)
#define OEND2 80(SP)
#define OEND3 88(SP)
#define ROUNDS 96(SP)
#define SPILL 104(SP)

// SETUP loads stream AX: its input position and the last position an
// 8-byte load fits at, its output cursor and end, and an empty container
// (the marker alone, so the first refill loads from the stream's start).
#define SETUP(bits, op, ptr, lim, oend) \
	MOVQ wideStream_src(AX), DX; \
	MOVQ DX, ptr; \
	ADDQ wideStream_src+8(AX), DX; \
	SUBQ $8, DX; \
	MOVQ DX, lim; \
	MOVQ wideStream_out(AX), op; \
	MOVQ wideStream_out+8(AX), DX; \
	LEAQ (op)(DX*2), DX; \
	MOVQ DX, oend; \
	MOVQ $1, bits; \
	ADDQ $wideStream__size, AX

// REFILL moves the input position past the whole bytes consumed and reloads
// the container from there, shifted past the bits of its first byte already
// consumed. It leaves for exit, with the stream untouched, when fewer than 8
// bytes are left to load.
#define REFILL(bits, ptr, lim) \
	TZCNTQ bits, AX; \
	MOVQ AX, DX; \
	SHRQ $3, DX; \
	ADDQ ptr, DX; \
	CMPQ DX, lim; \
	JHI  exit; \
	MOVQ DX, ptr; \
	MOVQ (DX), bits; \
	BSWAPQ bits; \
	ORQ  $1, bits; \
	ANDL $7, AX; \
	SHLXQ AX, bits, bits

// MINROOM lowers AX to the output bytes left to stream op.
#define MINROOM(op, oend) \
	MOVQ oend, DX; \
	SUBQ op, DX; \
	CMPQ DX, AX; \
	CMOVQLT DX, AX

// ROUNDSTOGO sets R15 to the rounds until the next refill: rounds, or fewer
// when the fullest output chunk has room for fewer (AX holds its room in
// bytes, shift turns that into rounds). None at all ends the kernel.
#define ROUNDSTOGO(shift) \
	MOVQ OEND0, AX; \
	SUBQ SI, AX; \
	MINROOM(DI, OEND1); \
	MINROOM(R12, OEND2); \
	MINROOM(R13, OEND3); \
	SHRQ $shift, AX; \
	CMPQ AX, ROUNDS; \
	CMOVQGT ROUNDS, AX; \
	TESTQ AX, AX; \
	JZ   exit; \
	MOVQ AX, R15

// PROBE looks the container's top tableBits bits up in the primary table:
// AX = the entry, and the flags say NZ for a link or zero entry (entry − 1
// has the link bit set exactly then).
#define PROBE(bits) \
	SHRXQ CX, bits, AX; \
	MOVL (BX)(AX*4), AX; \
	LEAL -1(AX), DX; \
	TESTL $const_entryLink, DX

// LINK follows the link entry in AX to its secondary table, indexed by the
// sub bits after the primary index: AX = that entry, flags as PROBE's. tmp
// is a free register.
#define LINK(bits, tmp) \
	MOVL AX, tmp; \
	ANDL $const_entryLenMask, tmp; \
	MOVQ CX, DX; \
	SUBQ tmp, DX; \
	SHRXQ DX, bits, DX; \
	BZHIQ tmp, DX, DX; \
	SHRL $const_entryShift, AX; \
	ADDL DX, AX; \
	MOVL (BX)(AX*4), AX; \
	LEAL -1(AX), DX; \
	TESTL $const_entryLink, DX

// EMIT consumes the direct entry AX's code (its length is the entry's low
// bits, and the link bit is clear) and writes its symbol.
#define EMIT(bits, op) \
	SHLXQ AX, bits, bits; \
	SHRL $const_entryShift, AX; \
	MOVW AX, (op); \
	ADDQ $2, op

// STORE writes stream AX's bits consumed and symbols written, and moves AX
// to the next stream.
#define STORE(bits, op, ptr) \
	MOVQ ptr, DX; \
	SUBQ wideStream_src(AX), DX; \
	SHLQ $3, DX; \
	TZCNTQ bits, CX; \
	ADDQ CX, DX; \
	MOVQ DX, wideStream_used(AX); \
	MOVQ op, DX; \
	SUBQ wideStream_out(AX), DX; \
	SHRQ $1, DX; \
	MOVQ DX, wideStream_n(AX); \
	ADDQ $wideStream__size, AX

// func appendCodesBMI2(buf []byte, pos int, enc []uint32, syms []uint16, acc uint64, nacc uint) (done, end int, accOut uint64, naccOut uint)
//
// appendCodes' pair step: acc = acc<<(n1+n2) | code1<<n2 | code2, then
// acc<<(64−nacc) goes out big-endian at buf[pos:] and pos advances by the
// whole bytes, keeping nacc&7 bits pending. SHLXQ takes its count mod 64, as
// appendCodes' &63 masks do, so it shifts by an entry (code<<6 | n) or by the
// sum of two entries as by their lengths. A pair advances pos by at most 6
// bytes (nacc ≤ 7 + 2·MaxCodeLen = 55 bits), so the room to the last
// position an 8-byte store fits at gives a batch of pairs whose stores all
// fit, which the pair loop runs on one branch a pair.
TEXT ·appendCodesBMI2(SB), NOSPLIT, $0-128
	MOVQ buf_base+0(FP), DI
	MOVQ buf_len+8(FP), R8
	SUBQ $8, R8                  // the last position an 8-byte store fits at
	MOVQ pos+24(FP), R9
	MOVQ enc_base+32(FP), SI
	MOVQ syms_base+56(FP), BX
	MOVQ syms_len+64(FP), R10
	ANDQ $-2, R10                // symbols in whole pairs
	MOVQ acc+80(FP), R11
	MOVQ nacc+88(FP), R12
	XORQ CX, CX                  // symbols coded

batch:
	MOVQ R8, AX
	SUBQ R9, AX
	JL   done                    // no store fits
	SHRQ $3, AX
	LEAQ 2(CX)(AX*2), R15        // 2·(room/8 + 1) symbols: fewer pairs than fit
	CMPQ R15, R10
	CMOVQGT R10, R15             // the batch's end
	CMPQ CX, R15
	JAE  done
	PCALIGN $64

pair:
	MOVWLZX (BX)(CX*2), AX
	MOVWLZX 2(BX)(CX*2), DX
	MOVL (SI)(AX*4), AX          // e1 = code1<<6 | n1
	MOVL (SI)(DX*4), DX          // e2
	LEAL (AX)(DX*1), R13         // n1 + n2 in the low 6 bits
	SHRL $6, AX
	SHLXQ DX, AX, AX             // code1 << n2
	SHRL $6, DX
	ORQ  DX, AX                  // code1<<n2 | code2
	SHLXQ R13, R11, R11          // acc << (n1+n2)
	ORQ  AX, R11
	ANDL $63, R13
	ADDQ R13, R12                // nacc ≤ 7 + 2·MaxCodeLen
	MOVQ R12, R13
	NEGQ R13
	SHLXQ R13, R11, AX           // acc << (64 − nacc)
	BSWAPQ AX
	MOVQ AX, (DI)(R9*1)
	MOVQ R12, R13
	SHRQ $3, R13
	ADDQ R13, R9
	ANDQ $7, R12
	ADDQ $2, CX
	CMPQ CX, R15
	JB   pair
	JMP  batch

done:
	MOVQ CX, done+96(FP)
	MOVQ R9, end+104(FP)
	MOVQ R11, accOut+112(FP)
	MOVQ R12, naccOut+120(FP)
	RET

// func decode4BMI2(s *[4]wideStream, tab []uint32, tb uint, rounds int)
TEXT ·decode4BMI2(SB), NOSPLIT, $112-48
	MOVQ s+0(FP), AX
	SETUP(R8, SI, PTR0, LIM0, OEND0)
	SETUP(R9, DI, PTR1, LIM1, OEND1)
	SETUP(R10, R12, PTR2, LIM2, OEND2)
	SETUP(R11, R13, PTR3, LIM3, OEND3)
	MOVQ tab_base+8(FP), BX
	MOVQ $64, CX
	SUBQ tb+32(FP), CX
	MOVQ rounds+40(FP), AX
	MOVQ AX, ROUNDS

refill:
	REFILL(R8, PTR0, LIM0)
	REFILL(R9, PTR1, LIM1)
	REFILL(R10, PTR2, LIM2)
	REFILL(R11, PTR3, LIM3)
	ROUNDSTOGO(1)

round:
	PROBE(R8)
	JNZ  slow0
ok0:
	EMIT(R8, SI)
	PROBE(R9)
	JNZ  slow1
ok1:
	EMIT(R9, DI)
	PROBE(R10)
	JNZ  slow2
ok2:
	EMIT(R10, R12)
	PROBE(R11)
	JNZ  slow3
ok3:
	EMIT(R11, R13)
	DECQ R15
	JNZ  round
	JMP  refill

slow0:
	TESTL AX, AX
	JZ   exit
	LINK(R8, R14)
	JNZ  exit
	JMP  ok0
slow1:
	TESTL AX, AX
	JZ   exit
	LINK(R9, R14)
	JNZ  exit
	JMP  ok1
slow2:
	TESTL AX, AX
	JZ   exit
	LINK(R10, R14)
	JNZ  exit
	JMP  ok2
slow3:
	TESTL AX, AX
	JZ   exit
	LINK(R11, R14)
	JNZ  exit
	JMP  ok3

exit:
	MOVQ s+0(FP), AX
	STORE(R8, SI, PTR0)
	STORE(R9, DI, PTR1)
	STORE(R10, R12, PTR2)
	STORE(R11, R13, PTR3)
	RET

// PAIR looks the container's top tableBits bits up in the double-symbol
// table (R14): DX = the entry, ZF set for a zero entry, AX = the index.
#define PAIR(bits) \
	SHRXQ CX, bits, AX; \
	MOVQ (R14)(AX*8), DX; \
	TESTQ DX, DX

// EMITPAIR consumes the entry DX's bits and writes both its symbol slots,
// advancing the cursor by the symbols it holds.
#define EMITPAIR(bits, op) \
	MOVL DX, (op); \
	MOVQ DX, AX; \
	SHRQ $32, AX; \
	SHLXQ AX, bits, bits; \
	SHRQ $40, DX; \
	LEAQ 2(op)(DX*2), op

// ONE is the fall-through of decode4's loop with the pair table for a zero
// pair entry: the primary probe at index AX, flags as PROBE's.
#define ONE \
	MOVL (BX)(AX*4), AX; \
	LEAL -1(AX), DX; \
	TESTL $const_entryLink, DX

// func decode4PairsBMI2(s *[4]wideStream, tab []uint32, pairs []uint64, tb uint, rounds int)
TEXT ·decode4PairsBMI2(SB), NOSPLIT, $112-72
	MOVQ s+0(FP), AX
	SETUP(R8, SI, PTR0, LIM0, OEND0)
	SETUP(R9, DI, PTR1, LIM1, OEND1)
	SETUP(R10, R12, PTR2, LIM2, OEND2)
	SETUP(R11, R13, PTR3, LIM3, OEND3)
	MOVQ tab_base+8(FP), BX
	MOVQ pairs_base+32(FP), R14
	MOVQ $64, CX
	SUBQ tb+56(FP), CX
	MOVQ rounds+64(FP), AX
	MOVQ AX, ROUNDS

prefill:
	REFILL(R8, PTR0, LIM0)
	REFILL(R9, PTR1, LIM1)
	REFILL(R10, PTR2, LIM2)
	REFILL(R11, PTR3, LIM3)
	// A round writes up to two slots a stream.
	ROUNDSTOGO(2)
	PCALIGN $64

pround:
	PAIR(R8)
	JZ   one0
	EMITPAIR(R8, SI)
next0:
	PAIR(R9)
	JZ   one1
	EMITPAIR(R9, DI)
next1:
	PAIR(R10)
	JZ   one2
	EMITPAIR(R10, R12)
next2:
	PAIR(R11)
	JZ   one3
	EMITPAIR(R11, R13)
next3:
	DECQ R15
	JNZ  pround
	JMP  prefill

one0:
	ONE
	JNZ  pslow0
pok0:
	EMIT(R8, SI)
	JMP  next0
pslow0:
	TESTL AX, AX
	JZ   exit
	MOVQ R15, SPILL
	LINK(R8, R15)
	MOVQ SPILL, R15
	JNZ  exit
	JMP  pok0

one1:
	ONE
	JNZ  pslow1
pok1:
	EMIT(R9, DI)
	JMP  next1
pslow1:
	TESTL AX, AX
	JZ   exit
	MOVQ R15, SPILL
	LINK(R9, R15)
	MOVQ SPILL, R15
	JNZ  exit
	JMP  pok1

one2:
	ONE
	JNZ  pslow2
pok2:
	EMIT(R10, R12)
	JMP  next2
pslow2:
	TESTL AX, AX
	JZ   exit
	MOVQ R15, SPILL
	LINK(R10, R15)
	MOVQ SPILL, R15
	JNZ  exit
	JMP  pok2

one3:
	ONE
	JNZ  pslow3
pok3:
	EMIT(R11, R13)
	JMP  next3
pslow3:
	TESTL AX, AX
	JZ   exit
	MOVQ R15, SPILL
	LINK(R11, R15)
	MOVQ SPILL, R15
	JNZ  exit
	JMP  pok3

exit:
	MOVQ s+0(FP), AX
	STORE(R8, SI, PTR0)
	STORE(R9, DI, PTR1)
	STORE(R10, R12, PTR2)
	STORE(R11, R13, PTR3)
	RET
