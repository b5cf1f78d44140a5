#include "textflag.h"

// func tile4x4(c []float32, cs int, a []float32, ars, aps int, b []float32, k int, acc bool)
//
// X0..X3 accumulate rows 0..3 of the tile, one output column per
// lane. Per p: X4 = b[p*4 : p*4+4]; for each row r, broadcast
// a[r*ars+p*aps] and add its product with X4 to the row's register.
// Baseline SSE only, no FMA: every product is rounded before the add.
TEXT ·tile4x4(SB), NOSPLIT, $0-105
	MOVQ c_base+0(FP), DI
	MOVQ cs+24(FP), DX
	SHLQ $2, DX              // C row stride in bytes
	MOVQ a_base+32(FP), SI
	MOVQ ars+56(FP), R8
	SHLQ $2, R8              // A row stride in bytes
	LEAQ (R8)(R8*2), R9      // three A rows
	MOVQ aps+64(FP), R10
	SHLQ $2, R10             // A k stride in bytes
	MOVQ b_base+72(FP), BX
	MOVQ k+96(FP), CX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	TESTQ CX, CX
	JEQ   store

loop:
	MOVUPS (BX), X4
	MOVSS  (SI), X5
	SHUFPS $0x00, X5, X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVSS  (SI)(R8*1), X6
	SHUFPS $0x00, X6, X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVSS  (SI)(R8*2), X7
	SHUFPS $0x00, X7, X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVSS  (SI)(R9*1), X8
	SHUFPS $0x00, X8, X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $16, BX
	ADDQ   R10, SI
	DECQ   CX
	JNE    loop

store:
	LEAQ    (DX)(DX*2), R11  // three C rows
	CMPB    acc+104(FP), $0
	JEQ     write
	MOVUPS  (DI), X4
	ADDPS   X4, X0
	MOVUPS  (DI)(DX*1), X5
	ADDPS   X5, X1
	MOVUPS  (DI)(DX*2), X6
	ADDPS   X6, X2
	MOVUPS  (DI)(R11*1), X7
	ADDPS   X7, X3

write:
	MOVUPS X0, (DI)
	MOVUPS X1, (DI)(DX*1)
	MOVUPS X2, (DI)(DX*2)
	MOVUPS X3, (DI)(R11*1)
	RET
