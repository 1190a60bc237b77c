// TSC accessors. RDTSCP is emitted via BYTE directives (0F 01 F9) for
// maximum assembler compatibility. All routines are NOSPLIT leaves.

#include "textflag.h"

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func rdtscpFenced() uint64
// RDTSCP ; LFENCE — the paper's Listing 1 sequence.
TEXT ·rdtscpFenced(SB), NOSPLIT, $0-8
	BYTE $0x0f; BYTE $0x01; BYTE $0xf9 // RDTSCP
	LFENCE
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// func rdtscCPUID() uint64
// CPUID ; RDTSC — fully serialized read of the counter.
TEXT ·rdtscCPUID(SB), NOSPLIT, $0-8
	XORL AX, AX
	XORL CX, CX
	CPUID
	RDTSC
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// func rdtscRaw() uint64
// Bare RDTSC, no ordering guarantees.
TEXT ·rdtscRaw(SB), NOSPLIT, $0-8
	RDTSC
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// func rdtscpRaw() uint64
// Bare RDTSCP, pseudo-serializing only.
TEXT ·rdtscpRaw(SB), NOSPLIT, $0-8
	BYTE $0x0f; BYTE $0x01; BYTE $0xf9 // RDTSCP
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET
