#include "textflag.h"

DATA consts<>+0(SB)/8, $0x0000000000000000  // the first quad's indices 0, 1, 2, 3
DATA consts<>+8(SB)/8, $0x3ff0000000000000
DATA consts<>+16(SB)/8, $0x4000000000000000
DATA consts<>+24(SB)/8, $0x4008000000000000
DATA consts<>+32(SB)/8, $0x4010000000000000 // 4.0, the index step
DATA consts<>+40(SB)/8, $0x7fffffffffffffff // float64 magnitude mask
GLOBL consts<>(SB), RODATA|NOPTR, $48

// func fitAVX2(block []float32, s *[2][4]float64)
TEXT ·fitAVX2(SB), NOSPLIT, $0-32
	MOVQ         block_base+0(FP), SI
	MOVQ         block_len+8(FP), CX
	MOVQ         s+24(FP), DI
	VXORPD       Y0, Y0, Y0            // y
	VXORPD       Y1, Y1, Y1            // x·y
	VMOVUPD      consts<>+0(SB), Y3    // the quad's indices
	VBROADCASTSD consts<>+32(SB), Y4

loop:
	VCVTPS2PD (SI), Y6 // f0 f1 f2 f3
	VADDPD    Y6, Y0, Y0
	VMULPD    Y6, Y3, Y7
	VADDPD    Y7, Y1, Y1
	VADDPD    Y4, Y3, Y3
	ADDQ      $16, SI
	SUBQ      $4, CX
	JNZ       loop

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func scoreAVX2(block []float32, prev, a, b float64, stride int, s *[3][4]float64)
TEXT ·scoreAVX2(SB), NOSPLIT, $0-64
	MOVQ         block_base+0(FP), SI
	MOVQ         block_len+8(FP), CX
	LEAQ         (SI)(CX*4), CX        // the end of the block
	MOVQ         stride+48(FP), DX
	SHLQ         $2, DX                // elements from one scored quad to the next
	VCVTSI2SDQ   DX, X4, X4
	VBROADCASTSD X4, Y4                // the index step
	SHLQ         $2, DX                // the same in bytes
	MOVQ         s+56(FP), DI
	VBROADCASTSD prev+24(FP), Y5       // lane 0: the element before the quad
	VBROADCASTSD a+32(FP), Y0
	VBROADCASTSD b+40(FP), Y1
	VXORPD       Y2, Y2, Y2            // l
	VXORPD       Y9, Y9, Y9            // r
	VXORPD       Y10, Y10, Y10         // z
	VMOVUPD      consts<>+0(SB), Y3    // the quad's indices
	VBROADCASTSD consts<>+40(SB), Y15
	JMP          first

sloop:
	VBROADCASTSS -4(SI), X5
	VCVTPS2PD    X5, Y5 // the element before the quad in every lane

first:
	VCVTPS2PD (SI), Y6       // f0 f1 f2 f3
	VPERMPD   $0x90, Y6, Y8  // f0 f0 f1 f2
	VBLENDPD  $1, Y5, Y8, Y8 // p  f0 f1 f2
	VSUBPD    Y8, Y6, Y8
	VANDPD    Y15, Y8, Y8
	VADDPD    Y8, Y2, Y2
	VMULPD    Y3, Y0, Y7
	VADDPD    Y1, Y7, Y7     // a·i + b
	VSUBPD    Y7, Y6, Y7
	VANDPD    Y15, Y7, Y7
	VADDPD    Y7, Y9, Y9
	VANDPD    Y15, Y6, Y8    // |v|, the zero line's error
	VADDPD    Y8, Y10, Y10
	VADDPD    Y4, Y3, Y3
	ADDQ      DX, SI
	CMPQ      SI, CX
	JB        sloop

	VMOVUPD Y2, 0(DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VZEROUPPER
	RET
