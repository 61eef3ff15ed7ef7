// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_h264(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[286]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v22 := vals[22]
	v27 := vals[27]
	v44 := vals[44]
	v57 := vals[57]
	v71 := vals[71]
	v94 := vals[94]
	v142 := vals[142]
	v152 := vals[152]
	v163 := vals[163]
	v175 := vals[175]
	v187 := vals[187]
	v199 := vals[199]
	v211 := vals[211]
	v223 := vals[223]
	v234 := vals[234]
	v245 := vals[245]
	v257 := vals[257]
	v269 := vals[269]
	v283 := vals[283]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v45 uint64
		if v44 != 0x0 {
			v45 = 1
		}
		v46 := (v44 - 0x1) & 0xff
		var v47 uint64
		if v45 != 0 {
			v47 = v46
		} else {
			v47 = v44
		}
		var v58 uint64
		if v57 != 0x0 {
			v58 = 1
		}
		v59 := (v57 - 0x1) & 0xff
		var v60 uint64
		if v58 != 0 {
			v60 = v59
		} else {
			v60 = v57
		}
		var v72 uint64
		if v71 != 0x0 {
			v72 = 1
		}
		v73 := (v71 - 0x1) & 0xff
		var v74 uint64
		if v72 != 0 {
			v74 = v73
		} else {
			v74 = v71
		}
		var v95 uint64
		if v94 != 0x0 {
			v95 = 1
		}
		v96 := (v94 - 0x1) & 0xff
		var v97 uint64
		if v95 != 0 {
			v97 = v96
		} else {
			v97 = v94
		}
		switch v22 {
		case 0x0:
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			n0 := v130
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = 0x1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		case 0x1:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v24 := (v9 >> 1)
			v33 := v24
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			n0 := v130
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = 0x2
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		case 0x2:
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v99 uint64
			if v27 == 0x0 {
				v99 = 1
			}
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			var v120 uint64
			if v99 != 0 {
				v120 = 0x3
			} else {
				v120 = 0x2
			}
			v123 := v120
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		case 0x3:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v5 := v3 & 0x3
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v15 := (v3 >> 9)
			v17 := v15 & 0x7
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			v34 := v9
			v35 := (v9 >> 2)
			v36 := (v34 - v35) & 0xff
			v38 := (0xa + v36) & 0xff
			var v42 uint64
			if v5 == 0x1 {
				v42 = 1
			}
			v49 := v17
			v50 := (v49 << 1) & 0xff
			v51 := (v49 + v50) & 0xff
			v53 := (0x3 + v51) & 0xff
			var v55 uint64
			if v5 == 0x2 {
				v55 = 1
			}
			var v77 uint64
			if v9 != 0x0 {
				v77 = 1
			}
			var v80 uint64
			if v77 != 0 {
				v80 = 0xc
			} else {
				v80 = 0x8
			}
			var v91 uint64
			if v5 == 0x0 {
				v91 = 1
			}
			var v117 uint64
			if v42 != 0 {
				v117 = 0x4
			} else {
				v117 = 0x5
			}
			var v118 uint64
			if v91 != 0 {
				v118 = 0x7
			} else {
				v118 = v117
			}
			v33 := v32
			v43 := v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v75 := v74
			v92 := v91
			v93 := v92
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v119 := v118
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		case 0x4:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v19 := (v3 >> 12)
			v21 := v19 & 0xffff
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v77 uint64
			if v9 != 0x0 {
				v77 = 1
			}
			var v80 uint64
			if v77 != 0 {
				v80 = 0xc
			} else {
				v80 = 0x8
			}
			var v83 uint64
			if v44 == 0x0 {
				v83 = 1
			}
			v134 := v21
			v136 := (v134 << 0) & 0xffffffffffff
			v137 := (v134 >> 0)
			v138 := (v136 | v137)
			v140 := (v138 + 0x1) & 0xffffffffffff
			v141 := (v138 * v140) & 0xffffffffffff
			v143 := (v142 + v141) & 0xffffffffffff
			v145 := (v134 << 1) & 0xffffffffffff
			v147 := (v134 >> 47)
			v148 := (v145 | v147)
			v150 := (v148 + 0x3) & 0xffffffffffff
			v151 := (v148 * v150) & 0xffffffffffff
			v153 := (v152 + v151) & 0xffffffffffff
			v155 := (v142 ^ v152)
			v156 := (v134 << 2) & 0xffffffffffff
			v158 := (v134 >> 46)
			v159 := (v156 | v158)
			v161 := (v159 + 0x5) & 0xffffffffffff
			v162 := (v159 * v161) & 0xffffffffffff
			v164 := (v163 + v162) & 0xffffffffffff
			v166 := (v155 ^ v163)
			v168 := (v134 << 3) & 0xffffffffffff
			v170 := (v134 >> 45)
			v171 := (v168 | v170)
			v173 := (v171 + 0x7) & 0xffffffffffff
			v174 := (v171 * v173) & 0xffffffffffff
			v176 := (v175 + v174) & 0xffffffffffff
			v178 := (v166 ^ v175)
			v180 := (v134 << 4) & 0xffffffffffff
			v182 := (v134 >> 44)
			v183 := (v180 | v182)
			v185 := (v183 + 0x9) & 0xffffffffffff
			v186 := (v183 * v185) & 0xffffffffffff
			v188 := (v187 + v186) & 0xffffffffffff
			v190 := (v178 ^ v187)
			v192 := (v134 << 5) & 0xffffffffffff
			v194 := (v134 >> 43)
			v195 := (v192 | v194)
			v197 := (v195 + 0xb) & 0xffffffffffff
			v198 := (v195 * v197) & 0xffffffffffff
			v200 := (v199 + v198) & 0xffffffffffff
			v202 := (v190 ^ v199)
			v204 := (v134 << 6) & 0xffffffffffff
			v206 := (v134 >> 42)
			v207 := (v204 | v206)
			v209 := (v207 + 0xd) & 0xffffffffffff
			v210 := (v207 * v209) & 0xffffffffffff
			v212 := (v211 + v210) & 0xffffffffffff
			v214 := (v202 ^ v211)
			v216 := (v134 << 7) & 0xffffffffffff
			v218 := (v134 >> 41)
			v219 := (v216 | v218)
			v221 := (v219 + 0xf) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v224 := (v223 + v222) & 0xffffffffffff
			v226 := (v214 ^ v223)
			v227 := (v134 << 8) & 0xffffffffffff
			v229 := (v134 >> 40)
			v230 := (v227 | v229)
			v232 := (v230 + 0x11) & 0xffffffffffff
			v233 := (v230 * v232) & 0xffffffffffff
			v235 := (v234 + v233) & 0xffffffffffff
			v237 := (v226 ^ v234)
			v238 := (v134 << 9) & 0xffffffffffff
			v240 := (v134 >> 39)
			v241 := (v238 | v240)
			v243 := (v241 + 0x13) & 0xffffffffffff
			v244 := (v241 * v243) & 0xffffffffffff
			v246 := (v245 + v244) & 0xffffffffffff
			v248 := (v237 ^ v245)
			v250 := (v134 << 10) & 0xffffffffffff
			v252 := (v134 >> 38)
			v253 := (v250 | v252)
			v255 := (v253 + 0x15) & 0xffffffffffff
			v256 := (v253 * v255) & 0xffffffffffff
			v258 := (v257 + v256) & 0xffffffffffff
			v260 := (v248 ^ v257)
			v262 := (v134 << 11) & 0xffffffffffff
			v264 := (v134 >> 37)
			v265 := (v262 | v264)
			v267 := (v265 + 0x17) & 0xffffffffffff
			v268 := (v265 * v267) & 0xffffffffffff
			v270 := (v269 + v268) & 0xffffffffffff
			v272 := (v260 ^ v269)
			v273 := (v21 * v21) & 0xffffffff
			v274 := (v9 * v9) & 0xffffffff
			v275 := (v273 + v274) & 0xffffffff
			v276 := (v275 >> 2)
			v277 := (v275 >> 1)
			v278 := (v276 + v277) & 0xffffffff
			v279 := (v278 + v275) & 0xffffffff
			v281 := v272 & 0xffffffff
			v282 := (v279 ^ v281)
			v284 := (v283 + v282) & 0xffffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v84 := v83
			v89 := v84
			v93 := v89
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v115 uint64
			if v83 != 0 {
				v115 = 0x7
			} else {
				v115 = 0x4
			}
			v116 := v115
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		case 0x5:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v11 := (v3 >> 8)
			v13 := v11 & 0x1
			v15 := (v3 >> 9)
			v17 := v15 & 0x7
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			v49 := v17
			v50 := (v49 << 1) & 0xff
			v51 := (v49 + v50) & 0xff
			var v63 uint64
			if v13 != 0 {
				v63 = 0x14
			} else {
				v63 = 0x0
			}
			v65 := (0x2 + v51) & 0xff
			v66 := (v65 + v63) & 0xff
			var v69 uint64
			if v57 == 0x0 {
				v69 = 1
			}
			v33 := v32
			v48 := v47
			v61 := v60
			v70 := v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v98 := v97
			var v113 uint64
			if v69 != 0 {
				v113 = 0x6
			} else {
				v113 = 0x5
			}
			v114 := v113
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		case 0x6:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v19 := (v3 >> 12)
			v21 := v19 & 0xffff
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v77 uint64
			if v9 != 0x0 {
				v77 = 1
			}
			var v80 uint64
			if v77 != 0 {
				v80 = 0xc
			} else {
				v80 = 0x8
			}
			var v87 uint64
			if v71 == 0x0 {
				v87 = 1
			}
			v134 := v21
			v136 := (v134 << 0) & 0xffffffffffff
			v137 := (v134 >> 0)
			v138 := (v136 | v137)
			v140 := (v138 + 0x1) & 0xffffffffffff
			v141 := (v138 * v140) & 0xffffffffffff
			v143 := (v142 + v141) & 0xffffffffffff
			v145 := (v134 << 1) & 0xffffffffffff
			v147 := (v134 >> 47)
			v148 := (v145 | v147)
			v150 := (v148 + 0x3) & 0xffffffffffff
			v151 := (v148 * v150) & 0xffffffffffff
			v153 := (v152 + v151) & 0xffffffffffff
			v155 := (v142 ^ v152)
			v156 := (v134 << 2) & 0xffffffffffff
			v158 := (v134 >> 46)
			v159 := (v156 | v158)
			v161 := (v159 + 0x5) & 0xffffffffffff
			v162 := (v159 * v161) & 0xffffffffffff
			v164 := (v163 + v162) & 0xffffffffffff
			v166 := (v155 ^ v163)
			v168 := (v134 << 3) & 0xffffffffffff
			v170 := (v134 >> 45)
			v171 := (v168 | v170)
			v173 := (v171 + 0x7) & 0xffffffffffff
			v174 := (v171 * v173) & 0xffffffffffff
			v176 := (v175 + v174) & 0xffffffffffff
			v178 := (v166 ^ v175)
			v180 := (v134 << 4) & 0xffffffffffff
			v182 := (v134 >> 44)
			v183 := (v180 | v182)
			v185 := (v183 + 0x9) & 0xffffffffffff
			v186 := (v183 * v185) & 0xffffffffffff
			v188 := (v187 + v186) & 0xffffffffffff
			v190 := (v178 ^ v187)
			v192 := (v134 << 5) & 0xffffffffffff
			v194 := (v134 >> 43)
			v195 := (v192 | v194)
			v197 := (v195 + 0xb) & 0xffffffffffff
			v198 := (v195 * v197) & 0xffffffffffff
			v200 := (v199 + v198) & 0xffffffffffff
			v202 := (v190 ^ v199)
			v204 := (v134 << 6) & 0xffffffffffff
			v206 := (v134 >> 42)
			v207 := (v204 | v206)
			v209 := (v207 + 0xd) & 0xffffffffffff
			v210 := (v207 * v209) & 0xffffffffffff
			v212 := (v211 + v210) & 0xffffffffffff
			v214 := (v202 ^ v211)
			v216 := (v134 << 7) & 0xffffffffffff
			v218 := (v134 >> 41)
			v219 := (v216 | v218)
			v221 := (v219 + 0xf) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v224 := (v223 + v222) & 0xffffffffffff
			v226 := (v214 ^ v223)
			v227 := (v134 << 8) & 0xffffffffffff
			v229 := (v134 >> 40)
			v230 := (v227 | v229)
			v232 := (v230 + 0x11) & 0xffffffffffff
			v233 := (v230 * v232) & 0xffffffffffff
			v235 := (v234 + v233) & 0xffffffffffff
			v237 := (v226 ^ v234)
			v238 := (v134 << 9) & 0xffffffffffff
			v240 := (v134 >> 39)
			v241 := (v238 | v240)
			v243 := (v241 + 0x13) & 0xffffffffffff
			v244 := (v241 * v243) & 0xffffffffffff
			v246 := (v245 + v244) & 0xffffffffffff
			v248 := (v237 ^ v245)
			v250 := (v134 << 10) & 0xffffffffffff
			v252 := (v134 >> 38)
			v253 := (v250 | v252)
			v255 := (v253 + 0x15) & 0xffffffffffff
			v256 := (v253 * v255) & 0xffffffffffff
			v258 := (v257 + v256) & 0xffffffffffff
			v260 := (v248 ^ v257)
			v262 := (v134 << 11) & 0xffffffffffff
			v264 := (v134 >> 37)
			v265 := (v262 | v264)
			v267 := (v265 + 0x17) & 0xffffffffffff
			v268 := (v265 * v267) & 0xffffffffffff
			v270 := (v269 + v268) & 0xffffffffffff
			v272 := (v260 ^ v269)
			v273 := (v21 * v21) & 0xffffffff
			v274 := (v9 * v9) & 0xffffffff
			v275 := (v273 + v274) & 0xffffffff
			v276 := (v275 >> 2)
			v277 := (v275 >> 1)
			v278 := (v276 + v277) & 0xffffffff
			v279 := (v278 + v275) & 0xffffffff
			v281 := v272 & 0xffffffff
			v282 := (v279 ^ v281)
			v284 := (v283 + v282) & 0xffffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v88 := v87
			v89 := v88
			v93 := v89
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v111 uint64
			if v87 != 0 {
				v111 = 0x7
			} else {
				v111 = 0x6
			}
			v112 := v111
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		case 0x7:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v19 := (v3 >> 12)
			v21 := v19 & 0xffff
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v100 uint64
			if v94 == 0x0 {
				v100 = 1
			}
			v134 := v21
			v136 := (v134 << 0) & 0xffffffffffff
			v137 := (v134 >> 0)
			v138 := (v136 | v137)
			v140 := (v138 + 0x1) & 0xffffffffffff
			v141 := (v138 * v140) & 0xffffffffffff
			v143 := (v142 + v141) & 0xffffffffffff
			v145 := (v134 << 1) & 0xffffffffffff
			v147 := (v134 >> 47)
			v148 := (v145 | v147)
			v150 := (v148 + 0x3) & 0xffffffffffff
			v151 := (v148 * v150) & 0xffffffffffff
			v153 := (v152 + v151) & 0xffffffffffff
			v155 := (v142 ^ v152)
			v156 := (v134 << 2) & 0xffffffffffff
			v158 := (v134 >> 46)
			v159 := (v156 | v158)
			v161 := (v159 + 0x5) & 0xffffffffffff
			v162 := (v159 * v161) & 0xffffffffffff
			v164 := (v163 + v162) & 0xffffffffffff
			v166 := (v155 ^ v163)
			v168 := (v134 << 3) & 0xffffffffffff
			v170 := (v134 >> 45)
			v171 := (v168 | v170)
			v173 := (v171 + 0x7) & 0xffffffffffff
			v174 := (v171 * v173) & 0xffffffffffff
			v176 := (v175 + v174) & 0xffffffffffff
			v178 := (v166 ^ v175)
			v180 := (v134 << 4) & 0xffffffffffff
			v182 := (v134 >> 44)
			v183 := (v180 | v182)
			v185 := (v183 + 0x9) & 0xffffffffffff
			v186 := (v183 * v185) & 0xffffffffffff
			v188 := (v187 + v186) & 0xffffffffffff
			v190 := (v178 ^ v187)
			v192 := (v134 << 5) & 0xffffffffffff
			v194 := (v134 >> 43)
			v195 := (v192 | v194)
			v197 := (v195 + 0xb) & 0xffffffffffff
			v198 := (v195 * v197) & 0xffffffffffff
			v200 := (v199 + v198) & 0xffffffffffff
			v202 := (v190 ^ v199)
			v204 := (v134 << 6) & 0xffffffffffff
			v206 := (v134 >> 42)
			v207 := (v204 | v206)
			v209 := (v207 + 0xd) & 0xffffffffffff
			v210 := (v207 * v209) & 0xffffffffffff
			v212 := (v211 + v210) & 0xffffffffffff
			v214 := (v202 ^ v211)
			v216 := (v134 << 7) & 0xffffffffffff
			v218 := (v134 >> 41)
			v219 := (v216 | v218)
			v221 := (v219 + 0xf) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v224 := (v223 + v222) & 0xffffffffffff
			v226 := (v214 ^ v223)
			v227 := (v134 << 8) & 0xffffffffffff
			v229 := (v134 >> 40)
			v230 := (v227 | v229)
			v232 := (v230 + 0x11) & 0xffffffffffff
			v233 := (v230 * v232) & 0xffffffffffff
			v235 := (v234 + v233) & 0xffffffffffff
			v237 := (v226 ^ v234)
			v238 := (v134 << 9) & 0xffffffffffff
			v240 := (v134 >> 39)
			v241 := (v238 | v240)
			v243 := (v241 + 0x13) & 0xffffffffffff
			v244 := (v241 * v243) & 0xffffffffffff
			v246 := (v245 + v244) & 0xffffffffffff
			v248 := (v237 ^ v245)
			v250 := (v134 << 10) & 0xffffffffffff
			v252 := (v134 >> 38)
			v253 := (v250 | v252)
			v255 := (v253 + 0x15) & 0xffffffffffff
			v256 := (v253 * v255) & 0xffffffffffff
			v258 := (v257 + v256) & 0xffffffffffff
			v260 := (v248 ^ v257)
			v262 := (v134 << 11) & 0xffffffffffff
			v264 := (v134 >> 37)
			v265 := (v262 | v264)
			v267 := (v265 + 0x17) & 0xffffffffffff
			v268 := (v265 * v267) & 0xffffffffffff
			v270 := (v269 + v268) & 0xffffffffffff
			v272 := (v260 ^ v269)
			v273 := (v21 * v21) & 0xffffffff
			v274 := (v9 * v9) & 0xffffffff
			v275 := (v273 + v274) & 0xffffffff
			v276 := (v275 >> 2)
			v277 := (v275 >> 1)
			v278 := (v276 + v277) & 0xffffffff
			v279 := (v278 + v275) & 0xffffffff
			v281 := v272 & 0xffffffff
			v282 := (v279 ^ v281)
			v284 := (v283 + v282) & 0xffffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			var v107 uint64
			if v100 != 0 {
				v107 = 0x8
			} else {
				v107 = 0x7
			}
			v110 := v107
			v112 := v110
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		case 0x8:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x1fff
			}
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v101 uint64
			if v2 <= v0 {
				v101 = 1
			}
			var v103 uint64
			if v101 != 0 {
				v103 = 0x9
			} else {
				v103 = 0x1
			}
			v129 := (v0 + 0x1) & 0x1fff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			v106 := v103
			v110 := v106
			v112 := v110
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v129
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v283
			}
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		case 0x9:
			break loop
		default:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x1fff
			}
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v5 := v3 & 0x3
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v11 := (v3 >> 8)
			v13 := v11 & 0x1
			v15 := (v3 >> 9)
			v17 := v15 & 0x7
			v19 := (v3 >> 12)
			v21 := v19 & 0xffff
			v24 := (v9 >> 1)
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			v34 := v9
			v35 := (v9 >> 2)
			v36 := (v34 - v35) & 0xff
			v38 := (0xa + v36) & 0xff
			var v42 uint64
			if v5 == 0x1 {
				v42 = 1
			}
			v49 := v17
			v50 := (v49 << 1) & 0xff
			v51 := (v49 + v50) & 0xff
			v53 := (0x3 + v51) & 0xff
			var v55 uint64
			if v5 == 0x2 {
				v55 = 1
			}
			var v63 uint64
			if v13 != 0 {
				v63 = 0x14
			} else {
				v63 = 0x0
			}
			v65 := (0x2 + v51) & 0xff
			v66 := (v65 + v63) & 0xff
			var v69 uint64
			if v57 == 0x0 {
				v69 = 1
			}
			var v77 uint64
			if v9 != 0x0 {
				v77 = 1
			}
			var v80 uint64
			if v77 != 0 {
				v80 = 0xc
			} else {
				v80 = 0x8
			}
			var v83 uint64
			if v44 == 0x0 {
				v83 = 1
			}
			var v87 uint64
			if v71 == 0x0 {
				v87 = 1
			}
			var v91 uint64
			if v5 == 0x0 {
				v91 = 1
			}
			var v99 uint64
			if v27 == 0x0 {
				v99 = 1
			}
			var v100 uint64
			if v94 == 0x0 {
				v100 = 1
			}
			var v101 uint64
			if v2 <= v0 {
				v101 = 1
			}
			var v103 uint64
			if v101 != 0 {
				v103 = 0x9
			} else {
				v103 = 0x1
			}
			var v117 uint64
			if v42 != 0 {
				v117 = 0x4
			} else {
				v117 = 0x5
			}
			var v118 uint64
			if v91 != 0 {
				v118 = 0x7
			} else {
				v118 = v117
			}
			v129 := (v0 + 0x1) & 0x1fff
			v134 := v21
			v136 := (v134 << 0) & 0xffffffffffff
			v137 := (v134 >> 0)
			v138 := (v136 | v137)
			v140 := (v138 + 0x1) & 0xffffffffffff
			v141 := (v138 * v140) & 0xffffffffffff
			v143 := (v142 + v141) & 0xffffffffffff
			v145 := (v134 << 1) & 0xffffffffffff
			v147 := (v134 >> 47)
			v148 := (v145 | v147)
			v150 := (v148 + 0x3) & 0xffffffffffff
			v151 := (v148 * v150) & 0xffffffffffff
			v153 := (v152 + v151) & 0xffffffffffff
			v155 := (v142 ^ v152)
			v156 := (v134 << 2) & 0xffffffffffff
			v158 := (v134 >> 46)
			v159 := (v156 | v158)
			v161 := (v159 + 0x5) & 0xffffffffffff
			v162 := (v159 * v161) & 0xffffffffffff
			v164 := (v163 + v162) & 0xffffffffffff
			v166 := (v155 ^ v163)
			v168 := (v134 << 3) & 0xffffffffffff
			v170 := (v134 >> 45)
			v171 := (v168 | v170)
			v173 := (v171 + 0x7) & 0xffffffffffff
			v174 := (v171 * v173) & 0xffffffffffff
			v176 := (v175 + v174) & 0xffffffffffff
			v178 := (v166 ^ v175)
			v180 := (v134 << 4) & 0xffffffffffff
			v182 := (v134 >> 44)
			v183 := (v180 | v182)
			v185 := (v183 + 0x9) & 0xffffffffffff
			v186 := (v183 * v185) & 0xffffffffffff
			v188 := (v187 + v186) & 0xffffffffffff
			v190 := (v178 ^ v187)
			v192 := (v134 << 5) & 0xffffffffffff
			v194 := (v134 >> 43)
			v195 := (v192 | v194)
			v197 := (v195 + 0xb) & 0xffffffffffff
			v198 := (v195 * v197) & 0xffffffffffff
			v200 := (v199 + v198) & 0xffffffffffff
			v202 := (v190 ^ v199)
			v204 := (v134 << 6) & 0xffffffffffff
			v206 := (v134 >> 42)
			v207 := (v204 | v206)
			v209 := (v207 + 0xd) & 0xffffffffffff
			v210 := (v207 * v209) & 0xffffffffffff
			v212 := (v211 + v210) & 0xffffffffffff
			v214 := (v202 ^ v211)
			v216 := (v134 << 7) & 0xffffffffffff
			v218 := (v134 >> 41)
			v219 := (v216 | v218)
			v221 := (v219 + 0xf) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v224 := (v223 + v222) & 0xffffffffffff
			v226 := (v214 ^ v223)
			v227 := (v134 << 8) & 0xffffffffffff
			v229 := (v134 >> 40)
			v230 := (v227 | v229)
			v232 := (v230 + 0x11) & 0xffffffffffff
			v233 := (v230 * v232) & 0xffffffffffff
			v235 := (v234 + v233) & 0xffffffffffff
			v237 := (v226 ^ v234)
			v238 := (v134 << 9) & 0xffffffffffff
			v240 := (v134 >> 39)
			v241 := (v238 | v240)
			v243 := (v241 + 0x13) & 0xffffffffffff
			v244 := (v241 * v243) & 0xffffffffffff
			v246 := (v245 + v244) & 0xffffffffffff
			v248 := (v237 ^ v245)
			v250 := (v134 << 10) & 0xffffffffffff
			v252 := (v134 >> 38)
			v253 := (v250 | v252)
			v255 := (v253 + 0x15) & 0xffffffffffff
			v256 := (v253 * v255) & 0xffffffffffff
			v258 := (v257 + v256) & 0xffffffffffff
			v260 := (v248 ^ v257)
			v262 := (v134 << 11) & 0xffffffffffff
			v264 := (v134 >> 37)
			v265 := (v262 | v264)
			v267 := (v265 + 0x17) & 0xffffffffffff
			v268 := (v265 * v267) & 0xffffffffffff
			v270 := (v269 + v268) & 0xffffffffffff
			v272 := (v260 ^ v269)
			v273 := (v21 * v21) & 0xffffffff
			v274 := (v9 * v9) & 0xffffffff
			v275 := (v273 + v274) & 0xffffffff
			v276 := (v275 >> 2)
			v277 := (v275 >> 1)
			v278 := (v276 + v277) & 0xffffffff
			v279 := (v278 + v275) & 0xffffffff
			v281 := v272 & 0xffffffff
			v282 := (v279 ^ v281)
			v284 := (v283 + v282) & 0xffffffff
			var v26 uint64
			if v22 == 0x1 {
				v26 = 1
			}
			var v33 uint64
			if v26 != 0 {
				v33 = v24
			} else {
				v33 = v32
			}
			var v40 uint64
			if v22 == 0x3 {
				v40 = 1
			}
			v43 := v40 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := v40 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			var v68 uint64
			if v22 == 0x5 {
				v68 = 1
			}
			v70 := v68 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			var v82 uint64
			if v22 == 0x4 {
				v82 = 1
			}
			v84 := v82 & v83
			var v86 uint64
			if v22 == 0x6 {
				v86 = 1
			}
			v88 := v86 & v87
			v89 := (v84 | v88)
			v92 := v40 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v105 uint64
			if v22 == 0x8 {
				v105 = 1
			}
			var v106 uint64
			if v105 != 0 {
				v106 = v103
			} else {
				v106 = v22
			}
			var v107 uint64
			if v100 != 0 {
				v107 = 0x8
			} else {
				v107 = v22
			}
			var v109 uint64
			if v22 == 0x7 {
				v109 = 1
			}
			var v110 uint64
			if v109 != 0 {
				v110 = v107
			} else {
				v110 = v106
			}
			var v111 uint64
			if v87 != 0 {
				v111 = 0x7
			} else {
				v111 = v22
			}
			var v112 uint64
			if v86 != 0 {
				v112 = v111
			} else {
				v112 = v110
			}
			var v113 uint64
			if v69 != 0 {
				v113 = 0x6
			} else {
				v113 = v22
			}
			var v114 uint64
			if v68 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v115 uint64
			if v83 != 0 {
				v115 = 0x7
			} else {
				v115 = v22
			}
			var v116 uint64
			if v82 != 0 {
				v116 = v115
			} else {
				v116 = v114
			}
			var v119 uint64
			if v40 != 0 {
				v119 = v118
			} else {
				v119 = v116
			}
			var v120 uint64
			if v99 != 0 {
				v120 = 0x3
			} else {
				v120 = v22
			}
			var v122 uint64
			if v22 == 0x2 {
				v122 = 1
			}
			var v123 uint64
			if v122 != 0 {
				v123 = v120
			} else {
				v123 = v119
			}
			var v124 uint64
			if v26 != 0 {
				v124 = 0x2
			} else {
				v124 = v123
			}
			var v126 uint64
			if v22 == 0x0 {
				v126 = 1
			}
			var v127 uint64
			if v126 != 0 {
				v127 = 0x1
			} else {
				v127 = v124
			}
			var v130 uint64
			if v105 != 0 {
				v130 = v129
			} else {
				v130 = v0
			}
			v131 := (v82 | v86)
			v132 := (v131 | v109)
			var v144 uint64
			if v132 != 0 {
				v144 = v143
			} else {
				v144 = v142
			}
			var v154 uint64
			if v132 != 0 {
				v154 = v153
			} else {
				v154 = v152
			}
			var v165 uint64
			if v132 != 0 {
				v165 = v164
			} else {
				v165 = v163
			}
			var v177 uint64
			if v132 != 0 {
				v177 = v176
			} else {
				v177 = v175
			}
			var v189 uint64
			if v132 != 0 {
				v189 = v188
			} else {
				v189 = v187
			}
			var v201 uint64
			if v132 != 0 {
				v201 = v200
			} else {
				v201 = v199
			}
			var v213 uint64
			if v132 != 0 {
				v213 = v212
			} else {
				v213 = v211
			}
			var v225 uint64
			if v132 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v236 uint64
			if v132 != 0 {
				v236 = v235
			} else {
				v236 = v234
			}
			var v247 uint64
			if v132 != 0 {
				v247 = v246
			} else {
				v247 = v245
			}
			var v259 uint64
			if v132 != 0 {
				v259 = v258
			} else {
				v259 = v257
			}
			var v271 uint64
			if v132 != 0 {
				v271 = v270
			} else {
				v271 = v269
			}
			var v285 uint64
			if v132 != 0 {
				v285 = v284
			} else {
				v285 = v283
			}
			var v286 uint64
			if v22 == 0x9 {
				v286 = 1
			}
			if v286 != 0 {
				break loop
			}
			if v105 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v283
				}
			}
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
		}
	}
	vals[0] = v0
	vals[22] = v22
	vals[27] = v27
	vals[44] = v44
	vals[57] = v57
	vals[71] = v71
	vals[94] = v94
	vals[142] = v142
	vals[152] = v152
	vals[163] = v163
	vals[175] = v175
	vals[187] = v187
	vals[199] = v199
	vals[211] = v211
	vals[223] = v223
	vals[234] = v234
	vals[245] = v245
	vals[257] = v257
	vals[269] = v269
	vals[283] = v283
	var v2 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v2 = m0[addr] & 0x1fff
	}
	vals[2] = v2
	var v3 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0xfffffff
	}
	vals[3] = v3
	v5 := v3 & 0x3
	vals[5] = v5
	v7 := (v3 >> 2)
	vals[7] = v7
	v9 := v7 & 0x3f
	vals[9] = v9
	v11 := (v3 >> 8)
	vals[11] = v11
	v13 := v11 & 0x1
	vals[13] = v13
	v15 := (v3 >> 9)
	vals[15] = v15
	v17 := v15 & 0x7
	vals[17] = v17
	v19 := (v3 >> 12)
	vals[19] = v19
	v21 := v19 & 0xffff
	vals[21] = v21
	v24 := (v9 >> 1)
	vals[24] = v24
	var v29 uint64
	if v27 != 0x0 {
		v29 = 1
	}
	vals[29] = v29
	v31 := (v27 - 0x1) & 0xff
	vals[31] = v31
	var v32 uint64
	if v29 != 0 {
		v32 = v31
	} else {
		v32 = v27
	}
	vals[32] = v32
	v34 := v9
	vals[34] = v34
	v35 := (v9 >> 2)
	vals[35] = v35
	v36 := (v34 - v35) & 0xff
	vals[36] = v36
	v38 := (0xa + v36) & 0xff
	vals[38] = v38
	var v42 uint64
	if v5 == 0x1 {
		v42 = 1
	}
	vals[42] = v42
	var v45 uint64
	if v44 != 0x0 {
		v45 = 1
	}
	vals[45] = v45
	v46 := (v44 - 0x1) & 0xff
	vals[46] = v46
	var v47 uint64
	if v45 != 0 {
		v47 = v46
	} else {
		v47 = v44
	}
	vals[47] = v47
	v49 := v17
	vals[49] = v49
	v50 := (v49 << 1) & 0xff
	vals[50] = v50
	v51 := (v49 + v50) & 0xff
	vals[51] = v51
	v53 := (0x3 + v51) & 0xff
	vals[53] = v53
	var v55 uint64
	if v5 == 0x2 {
		v55 = 1
	}
	vals[55] = v55
	var v58 uint64
	if v57 != 0x0 {
		v58 = 1
	}
	vals[58] = v58
	v59 := (v57 - 0x1) & 0xff
	vals[59] = v59
	var v60 uint64
	if v58 != 0 {
		v60 = v59
	} else {
		v60 = v57
	}
	vals[60] = v60
	var v63 uint64
	if v13 != 0 {
		v63 = 0x14
	} else {
		v63 = 0x0
	}
	vals[63] = v63
	v65 := (0x2 + v51) & 0xff
	vals[65] = v65
	v66 := (v65 + v63) & 0xff
	vals[66] = v66
	var v69 uint64
	if v57 == 0x0 {
		v69 = 1
	}
	vals[69] = v69
	var v72 uint64
	if v71 != 0x0 {
		v72 = 1
	}
	vals[72] = v72
	v73 := (v71 - 0x1) & 0xff
	vals[73] = v73
	var v74 uint64
	if v72 != 0 {
		v74 = v73
	} else {
		v74 = v71
	}
	vals[74] = v74
	var v77 uint64
	if v9 != 0x0 {
		v77 = 1
	}
	vals[77] = v77
	var v80 uint64
	if v77 != 0 {
		v80 = 0xc
	} else {
		v80 = 0x8
	}
	vals[80] = v80
	var v83 uint64
	if v44 == 0x0 {
		v83 = 1
	}
	vals[83] = v83
	var v87 uint64
	if v71 == 0x0 {
		v87 = 1
	}
	vals[87] = v87
	var v91 uint64
	if v5 == 0x0 {
		v91 = 1
	}
	vals[91] = v91
	var v95 uint64
	if v94 != 0x0 {
		v95 = 1
	}
	vals[95] = v95
	v96 := (v94 - 0x1) & 0xff
	vals[96] = v96
	var v97 uint64
	if v95 != 0 {
		v97 = v96
	} else {
		v97 = v94
	}
	vals[97] = v97
	var v99 uint64
	if v27 == 0x0 {
		v99 = 1
	}
	vals[99] = v99
	var v100 uint64
	if v94 == 0x0 {
		v100 = 1
	}
	vals[100] = v100
	var v101 uint64
	if v2 <= v0 {
		v101 = 1
	}
	vals[101] = v101
	var v103 uint64
	if v101 != 0 {
		v103 = 0x9
	} else {
		v103 = 0x1
	}
	vals[103] = v103
	var v117 uint64
	if v42 != 0 {
		v117 = 0x4
	} else {
		v117 = 0x5
	}
	vals[117] = v117
	var v118 uint64
	if v91 != 0 {
		v118 = 0x7
	} else {
		v118 = v117
	}
	vals[118] = v118
	v129 := (v0 + 0x1) & 0x1fff
	vals[129] = v129
	v134 := v21
	vals[134] = v134
	v136 := (v134 << 0) & 0xffffffffffff
	vals[136] = v136
	v137 := (v134 >> 0)
	vals[137] = v137
	v138 := (v136 | v137)
	vals[138] = v138
	v140 := (v138 + 0x1) & 0xffffffffffff
	vals[140] = v140
	v141 := (v138 * v140) & 0xffffffffffff
	vals[141] = v141
	v143 := (v142 + v141) & 0xffffffffffff
	vals[143] = v143
	v145 := (v134 << 1) & 0xffffffffffff
	vals[145] = v145
	v147 := (v134 >> 47)
	vals[147] = v147
	v148 := (v145 | v147)
	vals[148] = v148
	v150 := (v148 + 0x3) & 0xffffffffffff
	vals[150] = v150
	v151 := (v148 * v150) & 0xffffffffffff
	vals[151] = v151
	v153 := (v152 + v151) & 0xffffffffffff
	vals[153] = v153
	v155 := (v142 ^ v152)
	vals[155] = v155
	v156 := (v134 << 2) & 0xffffffffffff
	vals[156] = v156
	v158 := (v134 >> 46)
	vals[158] = v158
	v159 := (v156 | v158)
	vals[159] = v159
	v161 := (v159 + 0x5) & 0xffffffffffff
	vals[161] = v161
	v162 := (v159 * v161) & 0xffffffffffff
	vals[162] = v162
	v164 := (v163 + v162) & 0xffffffffffff
	vals[164] = v164
	v166 := (v155 ^ v163)
	vals[166] = v166
	v168 := (v134 << 3) & 0xffffffffffff
	vals[168] = v168
	v170 := (v134 >> 45)
	vals[170] = v170
	v171 := (v168 | v170)
	vals[171] = v171
	v173 := (v171 + 0x7) & 0xffffffffffff
	vals[173] = v173
	v174 := (v171 * v173) & 0xffffffffffff
	vals[174] = v174
	v176 := (v175 + v174) & 0xffffffffffff
	vals[176] = v176
	v178 := (v166 ^ v175)
	vals[178] = v178
	v180 := (v134 << 4) & 0xffffffffffff
	vals[180] = v180
	v182 := (v134 >> 44)
	vals[182] = v182
	v183 := (v180 | v182)
	vals[183] = v183
	v185 := (v183 + 0x9) & 0xffffffffffff
	vals[185] = v185
	v186 := (v183 * v185) & 0xffffffffffff
	vals[186] = v186
	v188 := (v187 + v186) & 0xffffffffffff
	vals[188] = v188
	v190 := (v178 ^ v187)
	vals[190] = v190
	v192 := (v134 << 5) & 0xffffffffffff
	vals[192] = v192
	v194 := (v134 >> 43)
	vals[194] = v194
	v195 := (v192 | v194)
	vals[195] = v195
	v197 := (v195 + 0xb) & 0xffffffffffff
	vals[197] = v197
	v198 := (v195 * v197) & 0xffffffffffff
	vals[198] = v198
	v200 := (v199 + v198) & 0xffffffffffff
	vals[200] = v200
	v202 := (v190 ^ v199)
	vals[202] = v202
	v204 := (v134 << 6) & 0xffffffffffff
	vals[204] = v204
	v206 := (v134 >> 42)
	vals[206] = v206
	v207 := (v204 | v206)
	vals[207] = v207
	v209 := (v207 + 0xd) & 0xffffffffffff
	vals[209] = v209
	v210 := (v207 * v209) & 0xffffffffffff
	vals[210] = v210
	v212 := (v211 + v210) & 0xffffffffffff
	vals[212] = v212
	v214 := (v202 ^ v211)
	vals[214] = v214
	v216 := (v134 << 7) & 0xffffffffffff
	vals[216] = v216
	v218 := (v134 >> 41)
	vals[218] = v218
	v219 := (v216 | v218)
	vals[219] = v219
	v221 := (v219 + 0xf) & 0xffffffffffff
	vals[221] = v221
	v222 := (v219 * v221) & 0xffffffffffff
	vals[222] = v222
	v224 := (v223 + v222) & 0xffffffffffff
	vals[224] = v224
	v226 := (v214 ^ v223)
	vals[226] = v226
	v227 := (v134 << 8) & 0xffffffffffff
	vals[227] = v227
	v229 := (v134 >> 40)
	vals[229] = v229
	v230 := (v227 | v229)
	vals[230] = v230
	v232 := (v230 + 0x11) & 0xffffffffffff
	vals[232] = v232
	v233 := (v230 * v232) & 0xffffffffffff
	vals[233] = v233
	v235 := (v234 + v233) & 0xffffffffffff
	vals[235] = v235
	v237 := (v226 ^ v234)
	vals[237] = v237
	v238 := (v134 << 9) & 0xffffffffffff
	vals[238] = v238
	v240 := (v134 >> 39)
	vals[240] = v240
	v241 := (v238 | v240)
	vals[241] = v241
	v243 := (v241 + 0x13) & 0xffffffffffff
	vals[243] = v243
	v244 := (v241 * v243) & 0xffffffffffff
	vals[244] = v244
	v246 := (v245 + v244) & 0xffffffffffff
	vals[246] = v246
	v248 := (v237 ^ v245)
	vals[248] = v248
	v250 := (v134 << 10) & 0xffffffffffff
	vals[250] = v250
	v252 := (v134 >> 38)
	vals[252] = v252
	v253 := (v250 | v252)
	vals[253] = v253
	v255 := (v253 + 0x15) & 0xffffffffffff
	vals[255] = v255
	v256 := (v253 * v255) & 0xffffffffffff
	vals[256] = v256
	v258 := (v257 + v256) & 0xffffffffffff
	vals[258] = v258
	v260 := (v248 ^ v257)
	vals[260] = v260
	v262 := (v134 << 11) & 0xffffffffffff
	vals[262] = v262
	v264 := (v134 >> 37)
	vals[264] = v264
	v265 := (v262 | v264)
	vals[265] = v265
	v267 := (v265 + 0x17) & 0xffffffffffff
	vals[267] = v267
	v268 := (v265 * v267) & 0xffffffffffff
	vals[268] = v268
	v270 := (v269 + v268) & 0xffffffffffff
	vals[270] = v270
	v272 := (v260 ^ v269)
	vals[272] = v272
	v273 := (v21 * v21) & 0xffffffff
	vals[273] = v273
	v274 := (v9 * v9) & 0xffffffff
	vals[274] = v274
	v275 := (v273 + v274) & 0xffffffff
	vals[275] = v275
	v276 := (v275 >> 2)
	vals[276] = v276
	v277 := (v275 >> 1)
	vals[277] = v277
	v278 := (v276 + v277) & 0xffffffff
	vals[278] = v278
	v279 := (v278 + v275) & 0xffffffff
	vals[279] = v279
	v281 := v272 & 0xffffffff
	vals[281] = v281
	v282 := (v279 ^ v281)
	vals[282] = v282
	v284 := (v283 + v282) & 0xffffffff
	vals[284] = v284
	switch v22 {
	case 0x0:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x0
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x0
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x0
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x0
		}
		vals[111] = v111
		vals[112] = 0x0
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x0
		}
		vals[113] = v113
		vals[114] = 0x0
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x0
		}
		vals[115] = v115
		vals[116] = 0x0
		vals[119] = 0x0
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x0
		}
		vals[120] = v120
		vals[122] = 0x0
		vals[123] = 0x0
		vals[124] = 0x0
		vals[126] = 0x1
		vals[127] = 0x1
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
	case 0x1:
		vals[26] = 0x1
		v33 := v24
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x1
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x1
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x1
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x1
		}
		vals[111] = v111
		vals[112] = 0x1
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x1
		}
		vals[113] = v113
		vals[114] = 0x1
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x1
		}
		vals[115] = v115
		vals[116] = 0x1
		vals[119] = 0x1
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x1
		}
		vals[120] = v120
		vals[122] = 0x0
		vals[123] = 0x1
		vals[124] = 0x2
		vals[126] = 0x0
		vals[127] = 0x2
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
	case 0x2:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x2
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x2
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x2
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x2
		}
		vals[111] = v111
		vals[112] = 0x2
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x2
		}
		vals[113] = v113
		vals[114] = 0x2
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x2
		}
		vals[115] = v115
		vals[116] = 0x2
		vals[119] = 0x2
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x2
		}
		vals[120] = v120
		vals[122] = 0x1
		v123 := v120
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
	case 0x3:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x1
		v43 := v42
		vals[43] = v43
		var v48 uint64
		if v43 != 0 {
			v48 = v38
		} else {
			v48 = v47
		}
		vals[48] = v48
		v56 := v55
		vals[56] = v56
		var v61 uint64
		if v56 != 0 {
			v61 = v53
		} else {
			v61 = v60
		}
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		v92 := v91
		vals[92] = v92
		v93 := v92
		vals[93] = v93
		var v98 uint64
		if v93 != 0 {
			v98 = v80
		} else {
			v98 = v97
		}
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x3
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x3
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x3
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x3
		}
		vals[111] = v111
		vals[112] = 0x3
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x3
		}
		vals[113] = v113
		vals[114] = 0x3
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x3
		}
		vals[115] = v115
		vals[116] = 0x3
		v119 := v118
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x3
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
	case 0x4:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x1
		v84 := v83
		vals[84] = v84
		vals[86] = 0x0
		vals[88] = 0x0
		v89 := v84
		vals[89] = v89
		vals[92] = 0x0
		v93 := v89
		vals[93] = v93
		var v98 uint64
		if v93 != 0 {
			v98 = v80
		} else {
			v98 = v97
		}
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x4
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x4
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x4
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x4
		}
		vals[111] = v111
		vals[112] = 0x4
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x4
		}
		vals[113] = v113
		vals[114] = 0x4
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x4
		}
		vals[115] = v115
		v116 := v115
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x4
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x1
		vals[132] = 0x1
		v144 := v143
		vals[144] = v144
		v154 := v153
		vals[154] = v154
		v165 := v164
		vals[165] = v165
		v177 := v176
		vals[177] = v177
		v189 := v188
		vals[189] = v189
		v201 := v200
		vals[201] = v201
		v213 := v212
		vals[213] = v213
		v225 := v224
		vals[225] = v225
		v236 := v235
		vals[236] = v236
		v247 := v246
		vals[247] = v247
		v259 := v258
		vals[259] = v259
		v271 := v270
		vals[271] = v271
		v285 := v284
		vals[285] = v285
		vals[286] = 0x0
	case 0x5:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x1
		v70 := v69
		vals[70] = v70
		var v75 uint64
		if v70 != 0 {
			v75 = v66
		} else {
			v75 = v74
		}
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x5
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x5
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x5
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x5
		}
		vals[111] = v111
		vals[112] = 0x5
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x5
		}
		vals[113] = v113
		v114 := v113
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x5
		}
		vals[115] = v115
		v116 := v114
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x5
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
	case 0x6:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x1
		v88 := v87
		vals[88] = v88
		v89 := v88
		vals[89] = v89
		vals[92] = 0x0
		v93 := v89
		vals[93] = v93
		var v98 uint64
		if v93 != 0 {
			v98 = v80
		} else {
			v98 = v97
		}
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x6
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x6
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x6
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x6
		}
		vals[111] = v111
		v112 := v111
		vals[112] = v112
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x6
		}
		vals[113] = v113
		v114 := v112
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x6
		}
		vals[115] = v115
		v116 := v114
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x6
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x1
		vals[132] = 0x1
		v144 := v143
		vals[144] = v144
		v154 := v153
		vals[154] = v154
		v165 := v164
		vals[165] = v165
		v177 := v176
		vals[177] = v177
		v189 := v188
		vals[189] = v189
		v201 := v200
		vals[201] = v201
		v213 := v212
		vals[213] = v213
		v225 := v224
		vals[225] = v225
		v236 := v235
		vals[236] = v236
		v247 := v246
		vals[247] = v247
		v259 := v258
		vals[259] = v259
		v271 := v270
		vals[271] = v271
		v285 := v284
		vals[285] = v285
		vals[286] = 0x0
	case 0x7:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x7
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x7
		}
		vals[107] = v107
		vals[109] = 0x1
		v110 := v107
		vals[110] = v110
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x7
		}
		vals[111] = v111
		v112 := v110
		vals[112] = v112
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x7
		}
		vals[113] = v113
		v114 := v112
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x7
		}
		vals[115] = v115
		v116 := v114
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x7
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x1
		v144 := v143
		vals[144] = v144
		v154 := v153
		vals[154] = v154
		v165 := v164
		vals[165] = v165
		v177 := v176
		vals[177] = v177
		v189 := v188
		vals[189] = v189
		v201 := v200
		vals[201] = v201
		v213 := v212
		vals[213] = v213
		v225 := v224
		vals[225] = v225
		v236 := v235
		vals[236] = v236
		v247 := v246
		vals[247] = v247
		v259 := v258
		vals[259] = v259
		v271 := v270
		vals[271] = v271
		v285 := v284
		vals[285] = v285
		vals[286] = 0x0
	case 0x8:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x1
		v106 := v103
		vals[106] = v106
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x8
		}
		vals[107] = v107
		vals[109] = 0x0
		v110 := v106
		vals[110] = v110
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x8
		}
		vals[111] = v111
		v112 := v110
		vals[112] = v112
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x8
		}
		vals[113] = v113
		v114 := v112
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x8
		}
		vals[115] = v115
		v116 := v114
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x8
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v129
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
	case 0x9:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x9
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x9
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x9
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x9
		}
		vals[111] = v111
		vals[112] = 0x9
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x9
		}
		vals[113] = v113
		vals[114] = 0x9
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x9
		}
		vals[115] = v115
		vals[116] = 0x9
		vals[119] = 0x9
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x9
		}
		vals[120] = v120
		vals[122] = 0x0
		vals[123] = 0x9
		vals[124] = 0x9
		vals[126] = 0x0
		vals[127] = 0x9
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x1
	default:
		var v26 uint64
		if v22 == 0x1 {
			v26 = 1
		}
		vals[26] = v26
		var v33 uint64
		if v26 != 0 {
			v33 = v24
		} else {
			v33 = v32
		}
		vals[33] = v33
		var v40 uint64
		if v22 == 0x3 {
			v40 = 1
		}
		vals[40] = v40
		v43 := v40 & v42
		vals[43] = v43
		var v48 uint64
		if v43 != 0 {
			v48 = v38
		} else {
			v48 = v47
		}
		vals[48] = v48
		v56 := v40 & v55
		vals[56] = v56
		var v61 uint64
		if v56 != 0 {
			v61 = v53
		} else {
			v61 = v60
		}
		vals[61] = v61
		var v68 uint64
		if v22 == 0x5 {
			v68 = 1
		}
		vals[68] = v68
		v70 := v68 & v69
		vals[70] = v70
		var v75 uint64
		if v70 != 0 {
			v75 = v66
		} else {
			v75 = v74
		}
		vals[75] = v75
		var v82 uint64
		if v22 == 0x4 {
			v82 = 1
		}
		vals[82] = v82
		v84 := v82 & v83
		vals[84] = v84
		var v86 uint64
		if v22 == 0x6 {
			v86 = 1
		}
		vals[86] = v86
		v88 := v86 & v87
		vals[88] = v88
		v89 := (v84 | v88)
		vals[89] = v89
		v92 := v40 & v91
		vals[92] = v92
		v93 := (v89 | v92)
		vals[93] = v93
		var v98 uint64
		if v93 != 0 {
			v98 = v80
		} else {
			v98 = v97
		}
		vals[98] = v98
		var v105 uint64
		if v22 == 0x8 {
			v105 = 1
		}
		vals[105] = v105
		var v106 uint64
		if v105 != 0 {
			v106 = v103
		} else {
			v106 = v22
		}
		vals[106] = v106
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = v22
		}
		vals[107] = v107
		var v109 uint64
		if v22 == 0x7 {
			v109 = 1
		}
		vals[109] = v109
		var v110 uint64
		if v109 != 0 {
			v110 = v107
		} else {
			v110 = v106
		}
		vals[110] = v110
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = v22
		}
		vals[111] = v111
		var v112 uint64
		if v86 != 0 {
			v112 = v111
		} else {
			v112 = v110
		}
		vals[112] = v112
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = v22
		}
		vals[113] = v113
		var v114 uint64
		if v68 != 0 {
			v114 = v113
		} else {
			v114 = v112
		}
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = v22
		}
		vals[115] = v115
		var v116 uint64
		if v82 != 0 {
			v116 = v115
		} else {
			v116 = v114
		}
		vals[116] = v116
		var v119 uint64
		if v40 != 0 {
			v119 = v118
		} else {
			v119 = v116
		}
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = v22
		}
		vals[120] = v120
		var v122 uint64
		if v22 == 0x2 {
			v122 = 1
		}
		vals[122] = v122
		var v123 uint64
		if v122 != 0 {
			v123 = v120
		} else {
			v123 = v119
		}
		vals[123] = v123
		var v124 uint64
		if v26 != 0 {
			v124 = 0x2
		} else {
			v124 = v123
		}
		vals[124] = v124
		var v126 uint64
		if v22 == 0x0 {
			v126 = 1
		}
		vals[126] = v126
		var v127 uint64
		if v126 != 0 {
			v127 = 0x1
		} else {
			v127 = v124
		}
		vals[127] = v127
		var v130 uint64
		if v105 != 0 {
			v130 = v129
		} else {
			v130 = v0
		}
		vals[130] = v130
		v131 := (v82 | v86)
		vals[131] = v131
		v132 := (v131 | v109)
		vals[132] = v132
		var v144 uint64
		if v132 != 0 {
			v144 = v143
		} else {
			v144 = v142
		}
		vals[144] = v144
		var v154 uint64
		if v132 != 0 {
			v154 = v153
		} else {
			v154 = v152
		}
		vals[154] = v154
		var v165 uint64
		if v132 != 0 {
			v165 = v164
		} else {
			v165 = v163
		}
		vals[165] = v165
		var v177 uint64
		if v132 != 0 {
			v177 = v176
		} else {
			v177 = v175
		}
		vals[177] = v177
		var v189 uint64
		if v132 != 0 {
			v189 = v188
		} else {
			v189 = v187
		}
		vals[189] = v189
		var v201 uint64
		if v132 != 0 {
			v201 = v200
		} else {
			v201 = v199
		}
		vals[201] = v201
		var v213 uint64
		if v132 != 0 {
			v213 = v212
		} else {
			v213 = v211
		}
		vals[213] = v213
		var v225 uint64
		if v132 != 0 {
			v225 = v224
		} else {
			v225 = v223
		}
		vals[225] = v225
		var v236 uint64
		if v132 != 0 {
			v236 = v235
		} else {
			v236 = v234
		}
		vals[236] = v236
		var v247 uint64
		if v132 != 0 {
			v247 = v246
		} else {
			v247 = v245
		}
		vals[247] = v247
		var v259 uint64
		if v132 != 0 {
			v259 = v258
		} else {
			v259 = v257
		}
		vals[259] = v259
		var v271 uint64
		if v132 != 0 {
			v271 = v270
		} else {
			v271 = v269
		}
		vals[271] = v271
		var v285 uint64
		if v132 != 0 {
			v285 = v284
		} else {
			v285 = v283
		}
		vals[285] = v285
		var v286 uint64
		if v22 == 0x9 {
			v286 = 1
		}
		vals[286] = v286
	}
	done := vals[286] != 0
	if vals[105] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[283]
		}
	}
	l0 := vals[130] & 0x1fff
	l1 := vals[127] & 0xf
	l2 := vals[33] & 0xff
	l3 := vals[48] & 0xff
	l4 := vals[61] & 0xff
	l5 := vals[75] & 0xff
	l6 := vals[98] & 0xff
	l7 := vals[144] & 0xffffffffffff
	l8 := vals[154] & 0xffffffffffff
	l9 := vals[165] & 0xffffffffffff
	l10 := vals[177] & 0xffffffffffff
	l11 := vals[189] & 0xffffffffffff
	l12 := vals[201] & 0xffffffffffff
	l13 := vals[213] & 0xffffffffffff
	l14 := vals[225] & 0xffffffffffff
	l15 := vals[236] & 0xffffffffffff
	l16 := vals[247] & 0xffffffffffff
	l17 := vals[259] & 0xffffffffffff
	l18 := vals[271] & 0xffffffffffff
	l19 := vals[285] & 0xffffffff
	vals[0] = l0
	vals[22] = l1
	vals[27] = l2
	vals[44] = l3
	vals[57] = l4
	vals[71] = l5
	vals[94] = l6
	vals[142] = l7
	vals[152] = l8
	vals[163] = l9
	vals[175] = l10
	vals[187] = l11
	vals[199] = l12
	vals[211] = l13
	vals[223] = l14
	vals[234] = l15
	vals[245] = l16
	vals[257] = l17
	vals[269] = l18
	vals[283] = l19
	return cycles + 1, done
}

func step_h264_ins(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[395]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v22 := vals[22]
	v27 := vals[27]
	v44 := vals[44]
	v57 := vals[57]
	v71 := vals[71]
	v94 := vals[94]
	v142 := vals[142]
	v152 := vals[152]
	v163 := vals[163]
	v175 := vals[175]
	v187 := vals[187]
	v199 := vals[199]
	v211 := vals[211]
	v223 := vals[223]
	v234 := vals[234]
	v245 := vals[245]
	v257 := vals[257]
	v269 := vals[269]
	v283 := vals[283]
	v290 := vals[290]
	v295 := vals[295]
	v300 := vals[300]
	v305 := vals[305]
	v310 := vals[310]
	v315 := vals[315]
	v319 := vals[319]
	v324 := vals[324]
	v328 := vals[328]
	v333 := vals[333]
	v338 := vals[338]
	v342 := vals[342]
	v345 := vals[345]
	v348 := vals[348]
	v351 := vals[351]
	v354 := vals[354]
	v357 := vals[357]
	v360 := vals[360]
	v363 := vals[363]
	v366 := vals[366]
	v369 := vals[369]
	v372 := vals[372]
	v375 := vals[375]
	v378 := vals[378]
	v385 := vals[385]
	v388 := vals[388]
	v393 := vals[393]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v45 uint64
		if v44 != 0x0 {
			v45 = 1
		}
		v46 := (v44 - 0x1) & 0xff
		var v47 uint64
		if v45 != 0 {
			v47 = v46
		} else {
			v47 = v44
		}
		var v58 uint64
		if v57 != 0x0 {
			v58 = 1
		}
		v59 := (v57 - 0x1) & 0xff
		var v60 uint64
		if v58 != 0 {
			v60 = v59
		} else {
			v60 = v57
		}
		var v72 uint64
		if v71 != 0x0 {
			v72 = 1
		}
		v73 := (v71 - 0x1) & 0xff
		var v74 uint64
		if v72 != 0 {
			v74 = v73
		} else {
			v74 = v71
		}
		var v95 uint64
		if v94 != 0x0 {
			v95 = 1
		}
		v96 := (v94 - 0x1) & 0xff
		var v97 uint64
		if v95 != 0 {
			v97 = v96
		} else {
			v97 = v94
		}
		switch v22 {
		case 0x0:
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			v291 := (v290 + 0x1) & 0xffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			v292 := v291
			v297 := v295
			v302 := v300
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			v326 := v324
			v330 := v328
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v345
			v350 := v348
			v353 := v351
			v356 := v354
			v359 := v357
			v362 := v360
			v365 := v363
			v368 := v366
			v371 := v369
			v374 := v372
			v377 := v375
			v380 := v378
			v387 := v385
			v390 := v388
			v392 := v390
			v395 := v393
			n0 := v130
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = 0x1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		case 0x1:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v24 := (v9 >> 1)
			v296 := (v295 + 0x1) & 0xffffff
			v346 := (v345 + 0x1) & 0xffffff
			v349 := (v348 + v24) & 0xffffff
			v352 := (v351 + v27) & 0xffffff
			v33 := v24
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			v292 := v290
			v297 := v296
			v302 := v300
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			v326 := v324
			v330 := v328
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v346
			v350 := v349
			v353 := v352
			v356 := v354
			v359 := v357
			v362 := v360
			v365 := v363
			v368 := v366
			v371 := v369
			v374 := v372
			v377 := v375
			v380 := v378
			v387 := v385
			v390 := v388
			v392 := v390
			v395 := v393
			n0 := v130
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = 0x2
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		case 0x2:
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v99 uint64
			if v27 == 0x0 {
				v99 = 1
			}
			v301 := (v300 + 0x1) & 0xffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			var v120 uint64
			if v99 != 0 {
				v120 = 0x3
			} else {
				v120 = 0x2
			}
			v123 := v120
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			v292 := v290
			v297 := v295
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			v326 := v324
			v330 := v328
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v345
			v350 := v348
			v353 := v351
			v356 := v354
			v359 := v357
			v362 := v360
			v365 := v363
			v368 := v366
			v371 := v369
			v374 := v372
			v377 := v375
			v380 := v378
			v387 := v385
			v390 := v388
			v392 := v390
			v395 := v393
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		case 0x3:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v5 := v3 & 0x3
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v15 := (v3 >> 9)
			v17 := v15 & 0x7
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			v34 := v9
			v35 := (v9 >> 2)
			v36 := (v34 - v35) & 0xff
			v38 := (0xa + v36) & 0xff
			var v42 uint64
			if v5 == 0x1 {
				v42 = 1
			}
			v49 := v17
			v50 := (v49 << 1) & 0xff
			v51 := (v49 + v50) & 0xff
			v53 := (0x3 + v51) & 0xff
			var v55 uint64
			if v5 == 0x2 {
				v55 = 1
			}
			var v77 uint64
			if v9 != 0x0 {
				v77 = 1
			}
			var v80 uint64
			if v77 != 0 {
				v80 = 0xc
			} else {
				v80 = 0x8
			}
			var v91 uint64
			if v5 == 0x0 {
				v91 = 1
			}
			var v117 uint64
			if v42 != 0 {
				v117 = 0x4
			} else {
				v117 = 0x5
			}
			var v118 uint64
			if v91 != 0 {
				v118 = 0x7
			} else {
				v118 = v117
			}
			v306 := (v305 + 0x1) & 0xffffff
			v311 := (v310 + 0x1) & 0xffffff
			v316 := (v315 + 0x1) & 0xffffff
			v355 := (v354 + 0x1) & 0xffffff
			v358 := (v357 + v38) & 0xffffff
			v361 := (v360 + v44) & 0xffffff
			v364 := (v363 + 0x1) & 0xffffff
			v367 := (v366 + v53) & 0xffffff
			v370 := (v369 + v57) & 0xffffff
			v382 := ^v77 & 0x1
			v386 := (v385 + 0x1) & 0xffffff
			v389 := (v388 + 0xc) & 0xffffff
			v391 := (v388 + 0x8) & 0xffffff
			v394 := (v393 + v94) & 0xffffff
			v33 := v32
			v43 := v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			v75 := v74
			v92 := v91
			v93 := v92
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			v119 := v118
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			v292 := v290
			v297 := v295
			v302 := v300
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v321 := v319
			v326 := v324
			v330 := v328
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v345
			v350 := v348
			v353 := v351
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			v374 := v372
			v377 := v375
			v380 := v378
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		case 0x4:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v19 := (v3 >> 12)
			v21 := v19 & 0xffff
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v77 uint64
			if v9 != 0x0 {
				v77 = 1
			}
			var v80 uint64
			if v77 != 0 {
				v80 = 0xc
			} else {
				v80 = 0x8
			}
			var v83 uint64
			if v44 == 0x0 {
				v83 = 1
			}
			v134 := v21
			v136 := (v134 << 0) & 0xffffffffffff
			v137 := (v134 >> 0)
			v138 := (v136 | v137)
			v140 := (v138 + 0x1) & 0xffffffffffff
			v141 := (v138 * v140) & 0xffffffffffff
			v143 := (v142 + v141) & 0xffffffffffff
			v145 := (v134 << 1) & 0xffffffffffff
			v147 := (v134 >> 47)
			v148 := (v145 | v147)
			v150 := (v148 + 0x3) & 0xffffffffffff
			v151 := (v148 * v150) & 0xffffffffffff
			v153 := (v152 + v151) & 0xffffffffffff
			v155 := (v142 ^ v152)
			v156 := (v134 << 2) & 0xffffffffffff
			v158 := (v134 >> 46)
			v159 := (v156 | v158)
			v161 := (v159 + 0x5) & 0xffffffffffff
			v162 := (v159 * v161) & 0xffffffffffff
			v164 := (v163 + v162) & 0xffffffffffff
			v166 := (v155 ^ v163)
			v168 := (v134 << 3) & 0xffffffffffff
			v170 := (v134 >> 45)
			v171 := (v168 | v170)
			v173 := (v171 + 0x7) & 0xffffffffffff
			v174 := (v171 * v173) & 0xffffffffffff
			v176 := (v175 + v174) & 0xffffffffffff
			v178 := (v166 ^ v175)
			v180 := (v134 << 4) & 0xffffffffffff
			v182 := (v134 >> 44)
			v183 := (v180 | v182)
			v185 := (v183 + 0x9) & 0xffffffffffff
			v186 := (v183 * v185) & 0xffffffffffff
			v188 := (v187 + v186) & 0xffffffffffff
			v190 := (v178 ^ v187)
			v192 := (v134 << 5) & 0xffffffffffff
			v194 := (v134 >> 43)
			v195 := (v192 | v194)
			v197 := (v195 + 0xb) & 0xffffffffffff
			v198 := (v195 * v197) & 0xffffffffffff
			v200 := (v199 + v198) & 0xffffffffffff
			v202 := (v190 ^ v199)
			v204 := (v134 << 6) & 0xffffffffffff
			v206 := (v134 >> 42)
			v207 := (v204 | v206)
			v209 := (v207 + 0xd) & 0xffffffffffff
			v210 := (v207 * v209) & 0xffffffffffff
			v212 := (v211 + v210) & 0xffffffffffff
			v214 := (v202 ^ v211)
			v216 := (v134 << 7) & 0xffffffffffff
			v218 := (v134 >> 41)
			v219 := (v216 | v218)
			v221 := (v219 + 0xf) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v224 := (v223 + v222) & 0xffffffffffff
			v226 := (v214 ^ v223)
			v227 := (v134 << 8) & 0xffffffffffff
			v229 := (v134 >> 40)
			v230 := (v227 | v229)
			v232 := (v230 + 0x11) & 0xffffffffffff
			v233 := (v230 * v232) & 0xffffffffffff
			v235 := (v234 + v233) & 0xffffffffffff
			v237 := (v226 ^ v234)
			v238 := (v134 << 9) & 0xffffffffffff
			v240 := (v134 >> 39)
			v241 := (v238 | v240)
			v243 := (v241 + 0x13) & 0xffffffffffff
			v244 := (v241 * v243) & 0xffffffffffff
			v246 := (v245 + v244) & 0xffffffffffff
			v248 := (v237 ^ v245)
			v250 := (v134 << 10) & 0xffffffffffff
			v252 := (v134 >> 38)
			v253 := (v250 | v252)
			v255 := (v253 + 0x15) & 0xffffffffffff
			v256 := (v253 * v255) & 0xffffffffffff
			v258 := (v257 + v256) & 0xffffffffffff
			v260 := (v248 ^ v257)
			v262 := (v134 << 11) & 0xffffffffffff
			v264 := (v134 >> 37)
			v265 := (v262 | v264)
			v267 := (v265 + 0x17) & 0xffffffffffff
			v268 := (v265 * v267) & 0xffffffffffff
			v270 := (v269 + v268) & 0xffffffffffff
			v272 := (v260 ^ v269)
			v273 := (v21 * v21) & 0xffffffff
			v274 := (v9 * v9) & 0xffffffff
			v275 := (v273 + v274) & 0xffffffff
			v276 := (v275 >> 2)
			v277 := (v275 >> 1)
			v278 := (v276 + v277) & 0xffffffff
			v279 := (v278 + v275) & 0xffffffff
			v281 := v272 & 0xffffffff
			v282 := (v279 ^ v281)
			v284 := (v283 + v282) & 0xffffffff
			v320 := (v319 + 0x1) & 0xffffff
			v382 := ^v77 & 0x1
			v386 := (v385 + 0x1) & 0xffffff
			v389 := (v388 + 0xc) & 0xffffff
			v391 := (v388 + 0x8) & 0xffffff
			v394 := (v393 + v94) & 0xffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v84 := v83
			v89 := v84
			v93 := v89
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v115 uint64
			if v83 != 0 {
				v115 = 0x7
			} else {
				v115 = 0x4
			}
			v116 := v115
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			v292 := v290
			v297 := v295
			v302 := v300
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v307 := v305
			v312 := v310
			v317 := v315
			v318 := v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			v326 := v324
			v330 := v328
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v345
			v350 := v348
			v353 := v351
			v356 := v354
			v359 := v357
			v362 := v360
			v365 := v363
			v368 := v366
			v371 := v369
			v374 := v372
			v377 := v375
			v380 := v378
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		case 0x5:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v11 := (v3 >> 8)
			v13 := v11 & 0x1
			v15 := (v3 >> 9)
			v17 := v15 & 0x7
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			v49 := v17
			v50 := (v49 << 1) & 0xff
			v51 := (v49 + v50) & 0xff
			var v63 uint64
			if v13 != 0 {
				v63 = 0x14
			} else {
				v63 = 0x0
			}
			v65 := (0x2 + v51) & 0xff
			v66 := (v65 + v63) & 0xff
			var v69 uint64
			if v57 == 0x0 {
				v69 = 1
			}
			v325 := (v324 + 0x1) & 0xffffff
			v373 := (v372 + 0x1) & 0xffffff
			v376 := (v375 + v66) & 0xffffff
			v379 := (v378 + v71) & 0xffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v70 := v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			v98 := v97
			var v113 uint64
			if v69 != 0 {
				v113 = 0x6
			} else {
				v113 = 0x5
			}
			v114 := v113
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			v292 := v290
			v297 := v295
			v302 := v300
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v330 := v328
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v345
			v350 := v348
			v353 := v351
			v356 := v354
			v359 := v357
			v362 := v360
			v365 := v363
			v368 := v366
			v371 := v369
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v387 := v385
			v390 := v388
			v392 := v390
			v395 := v393
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		case 0x6:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v19 := (v3 >> 12)
			v21 := v19 & 0xffff
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v77 uint64
			if v9 != 0x0 {
				v77 = 1
			}
			var v80 uint64
			if v77 != 0 {
				v80 = 0xc
			} else {
				v80 = 0x8
			}
			var v87 uint64
			if v71 == 0x0 {
				v87 = 1
			}
			v134 := v21
			v136 := (v134 << 0) & 0xffffffffffff
			v137 := (v134 >> 0)
			v138 := (v136 | v137)
			v140 := (v138 + 0x1) & 0xffffffffffff
			v141 := (v138 * v140) & 0xffffffffffff
			v143 := (v142 + v141) & 0xffffffffffff
			v145 := (v134 << 1) & 0xffffffffffff
			v147 := (v134 >> 47)
			v148 := (v145 | v147)
			v150 := (v148 + 0x3) & 0xffffffffffff
			v151 := (v148 * v150) & 0xffffffffffff
			v153 := (v152 + v151) & 0xffffffffffff
			v155 := (v142 ^ v152)
			v156 := (v134 << 2) & 0xffffffffffff
			v158 := (v134 >> 46)
			v159 := (v156 | v158)
			v161 := (v159 + 0x5) & 0xffffffffffff
			v162 := (v159 * v161) & 0xffffffffffff
			v164 := (v163 + v162) & 0xffffffffffff
			v166 := (v155 ^ v163)
			v168 := (v134 << 3) & 0xffffffffffff
			v170 := (v134 >> 45)
			v171 := (v168 | v170)
			v173 := (v171 + 0x7) & 0xffffffffffff
			v174 := (v171 * v173) & 0xffffffffffff
			v176 := (v175 + v174) & 0xffffffffffff
			v178 := (v166 ^ v175)
			v180 := (v134 << 4) & 0xffffffffffff
			v182 := (v134 >> 44)
			v183 := (v180 | v182)
			v185 := (v183 + 0x9) & 0xffffffffffff
			v186 := (v183 * v185) & 0xffffffffffff
			v188 := (v187 + v186) & 0xffffffffffff
			v190 := (v178 ^ v187)
			v192 := (v134 << 5) & 0xffffffffffff
			v194 := (v134 >> 43)
			v195 := (v192 | v194)
			v197 := (v195 + 0xb) & 0xffffffffffff
			v198 := (v195 * v197) & 0xffffffffffff
			v200 := (v199 + v198) & 0xffffffffffff
			v202 := (v190 ^ v199)
			v204 := (v134 << 6) & 0xffffffffffff
			v206 := (v134 >> 42)
			v207 := (v204 | v206)
			v209 := (v207 + 0xd) & 0xffffffffffff
			v210 := (v207 * v209) & 0xffffffffffff
			v212 := (v211 + v210) & 0xffffffffffff
			v214 := (v202 ^ v211)
			v216 := (v134 << 7) & 0xffffffffffff
			v218 := (v134 >> 41)
			v219 := (v216 | v218)
			v221 := (v219 + 0xf) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v224 := (v223 + v222) & 0xffffffffffff
			v226 := (v214 ^ v223)
			v227 := (v134 << 8) & 0xffffffffffff
			v229 := (v134 >> 40)
			v230 := (v227 | v229)
			v232 := (v230 + 0x11) & 0xffffffffffff
			v233 := (v230 * v232) & 0xffffffffffff
			v235 := (v234 + v233) & 0xffffffffffff
			v237 := (v226 ^ v234)
			v238 := (v134 << 9) & 0xffffffffffff
			v240 := (v134 >> 39)
			v241 := (v238 | v240)
			v243 := (v241 + 0x13) & 0xffffffffffff
			v244 := (v241 * v243) & 0xffffffffffff
			v246 := (v245 + v244) & 0xffffffffffff
			v248 := (v237 ^ v245)
			v250 := (v134 << 10) & 0xffffffffffff
			v252 := (v134 >> 38)
			v253 := (v250 | v252)
			v255 := (v253 + 0x15) & 0xffffffffffff
			v256 := (v253 * v255) & 0xffffffffffff
			v258 := (v257 + v256) & 0xffffffffffff
			v260 := (v248 ^ v257)
			v262 := (v134 << 11) & 0xffffffffffff
			v264 := (v134 >> 37)
			v265 := (v262 | v264)
			v267 := (v265 + 0x17) & 0xffffffffffff
			v268 := (v265 * v267) & 0xffffffffffff
			v270 := (v269 + v268) & 0xffffffffffff
			v272 := (v260 ^ v269)
			v273 := (v21 * v21) & 0xffffffff
			v274 := (v9 * v9) & 0xffffffff
			v275 := (v273 + v274) & 0xffffffff
			v276 := (v275 >> 2)
			v277 := (v275 >> 1)
			v278 := (v276 + v277) & 0xffffffff
			v279 := (v278 + v275) & 0xffffffff
			v281 := v272 & 0xffffffff
			v282 := (v279 ^ v281)
			v284 := (v283 + v282) & 0xffffffff
			v329 := (v328 + 0x1) & 0xffffff
			v382 := ^v77 & 0x1
			v386 := (v385 + 0x1) & 0xffffff
			v389 := (v388 + 0xc) & 0xffffff
			v391 := (v388 + 0x8) & 0xffffff
			v394 := (v393 + v94) & 0xffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v88 := v87
			v89 := v88
			v93 := v89
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v111 uint64
			if v87 != 0 {
				v111 = 0x7
			} else {
				v111 = 0x6
			}
			v112 := v111
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			v292 := v290
			v297 := v295
			v302 := v300
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			v326 := v324
			v327 := v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			v335 := v333
			v340 := v338
			v344 := v342
			v347 := v345
			v350 := v348
			v353 := v351
			v356 := v354
			v359 := v357
			v362 := v360
			v365 := v363
			v368 := v366
			v371 := v369
			v374 := v372
			v377 := v375
			v380 := v378
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		case 0x7:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v19 := (v3 >> 12)
			v21 := v19 & 0xffff
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v100 uint64
			if v94 == 0x0 {
				v100 = 1
			}
			v134 := v21
			v136 := (v134 << 0) & 0xffffffffffff
			v137 := (v134 >> 0)
			v138 := (v136 | v137)
			v140 := (v138 + 0x1) & 0xffffffffffff
			v141 := (v138 * v140) & 0xffffffffffff
			v143 := (v142 + v141) & 0xffffffffffff
			v145 := (v134 << 1) & 0xffffffffffff
			v147 := (v134 >> 47)
			v148 := (v145 | v147)
			v150 := (v148 + 0x3) & 0xffffffffffff
			v151 := (v148 * v150) & 0xffffffffffff
			v153 := (v152 + v151) & 0xffffffffffff
			v155 := (v142 ^ v152)
			v156 := (v134 << 2) & 0xffffffffffff
			v158 := (v134 >> 46)
			v159 := (v156 | v158)
			v161 := (v159 + 0x5) & 0xffffffffffff
			v162 := (v159 * v161) & 0xffffffffffff
			v164 := (v163 + v162) & 0xffffffffffff
			v166 := (v155 ^ v163)
			v168 := (v134 << 3) & 0xffffffffffff
			v170 := (v134 >> 45)
			v171 := (v168 | v170)
			v173 := (v171 + 0x7) & 0xffffffffffff
			v174 := (v171 * v173) & 0xffffffffffff
			v176 := (v175 + v174) & 0xffffffffffff
			v178 := (v166 ^ v175)
			v180 := (v134 << 4) & 0xffffffffffff
			v182 := (v134 >> 44)
			v183 := (v180 | v182)
			v185 := (v183 + 0x9) & 0xffffffffffff
			v186 := (v183 * v185) & 0xffffffffffff
			v188 := (v187 + v186) & 0xffffffffffff
			v190 := (v178 ^ v187)
			v192 := (v134 << 5) & 0xffffffffffff
			v194 := (v134 >> 43)
			v195 := (v192 | v194)
			v197 := (v195 + 0xb) & 0xffffffffffff
			v198 := (v195 * v197) & 0xffffffffffff
			v200 := (v199 + v198) & 0xffffffffffff
			v202 := (v190 ^ v199)
			v204 := (v134 << 6) & 0xffffffffffff
			v206 := (v134 >> 42)
			v207 := (v204 | v206)
			v209 := (v207 + 0xd) & 0xffffffffffff
			v210 := (v207 * v209) & 0xffffffffffff
			v212 := (v211 + v210) & 0xffffffffffff
			v214 := (v202 ^ v211)
			v216 := (v134 << 7) & 0xffffffffffff
			v218 := (v134 >> 41)
			v219 := (v216 | v218)
			v221 := (v219 + 0xf) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v224 := (v223 + v222) & 0xffffffffffff
			v226 := (v214 ^ v223)
			v227 := (v134 << 8) & 0xffffffffffff
			v229 := (v134 >> 40)
			v230 := (v227 | v229)
			v232 := (v230 + 0x11) & 0xffffffffffff
			v233 := (v230 * v232) & 0xffffffffffff
			v235 := (v234 + v233) & 0xffffffffffff
			v237 := (v226 ^ v234)
			v238 := (v134 << 9) & 0xffffffffffff
			v240 := (v134 >> 39)
			v241 := (v238 | v240)
			v243 := (v241 + 0x13) & 0xffffffffffff
			v244 := (v241 * v243) & 0xffffffffffff
			v246 := (v245 + v244) & 0xffffffffffff
			v248 := (v237 ^ v245)
			v250 := (v134 << 10) & 0xffffffffffff
			v252 := (v134 >> 38)
			v253 := (v250 | v252)
			v255 := (v253 + 0x15) & 0xffffffffffff
			v256 := (v253 * v255) & 0xffffffffffff
			v258 := (v257 + v256) & 0xffffffffffff
			v260 := (v248 ^ v257)
			v262 := (v134 << 11) & 0xffffffffffff
			v264 := (v134 >> 37)
			v265 := (v262 | v264)
			v267 := (v265 + 0x17) & 0xffffffffffff
			v268 := (v265 * v267) & 0xffffffffffff
			v270 := (v269 + v268) & 0xffffffffffff
			v272 := (v260 ^ v269)
			v273 := (v21 * v21) & 0xffffffff
			v274 := (v9 * v9) & 0xffffffff
			v275 := (v273 + v274) & 0xffffffff
			v276 := (v275 >> 2)
			v277 := (v275 >> 1)
			v278 := (v276 + v277) & 0xffffffff
			v279 := (v278 + v275) & 0xffffffff
			v281 := v272 & 0xffffffff
			v282 := (v279 ^ v281)
			v284 := (v283 + v282) & 0xffffffff
			v334 := (v333 + 0x1) & 0xffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			var v107 uint64
			if v100 != 0 {
				v107 = 0x8
			} else {
				v107 = 0x7
			}
			v110 := v107
			v112 := v110
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v0
			v144 := v143
			v154 := v153
			v165 := v164
			v177 := v176
			v189 := v188
			v201 := v200
			v213 := v212
			v225 := v224
			v236 := v235
			v247 := v246
			v259 := v258
			v271 := v270
			v285 := v284
			v292 := v290
			v297 := v295
			v302 := v300
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			v326 := v324
			v330 := v328
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			v340 := v338
			v344 := v342
			v347 := v345
			v350 := v348
			v353 := v351
			v356 := v354
			v359 := v357
			v362 := v360
			v365 := v363
			v368 := v366
			v371 := v369
			v374 := v372
			v377 := v375
			v380 := v378
			v387 := v385
			v390 := v388
			v392 := v390
			v395 := v393
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		case 0x8:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x1fff
			}
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			var v101 uint64
			if v2 <= v0 {
				v101 = 1
			}
			var v103 uint64
			if v101 != 0 {
				v103 = 0x9
			} else {
				v103 = 0x1
			}
			v129 := (v0 + 0x1) & 0x1fff
			v339 := (v338 + 0x1) & 0xffffff
			v343 := (v342 + 0x1) & 0xffffff
			v33 := v32
			v48 := v47
			v61 := v60
			v75 := v74
			v98 := v97
			v106 := v103
			v110 := v106
			v112 := v110
			v114 := v112
			v116 := v114
			v119 := v116
			v123 := v119
			v124 := v123
			v127 := v124
			v130 := v129
			v144 := v142
			v154 := v152
			v165 := v163
			v177 := v175
			v189 := v187
			v201 := v199
			v213 := v211
			v225 := v223
			v236 := v234
			v247 := v245
			v259 := v257
			v271 := v269
			v285 := v283
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v292 := v290
			v297 := v295
			v302 := v300
			v307 := v305
			v312 := v310
			v317 := v315
			v321 := v319
			v326 := v324
			v330 := v328
			v335 := v333
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			v347 := v345
			v350 := v348
			v353 := v351
			v356 := v354
			v359 := v357
			v362 := v360
			v365 := v363
			v368 := v366
			v371 := v369
			v374 := v372
			v377 := v375
			v380 := v378
			v387 := v385
			v390 := v388
			v392 := v390
			v395 := v393
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v283
			}
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		case 0x9:
			break loop
		default:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x1fff
			}
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0xfffffff
			}
			v5 := v3 & 0x3
			v7 := (v3 >> 2)
			v9 := v7 & 0x3f
			v11 := (v3 >> 8)
			v13 := v11 & 0x1
			v15 := (v3 >> 9)
			v17 := v15 & 0x7
			v19 := (v3 >> 12)
			v21 := v19 & 0xffff
			v24 := (v9 >> 1)
			var v29 uint64
			if v27 != 0x0 {
				v29 = 1
			}
			v31 := (v27 - 0x1) & 0xff
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v27
			}
			v34 := v9
			v35 := (v9 >> 2)
			v36 := (v34 - v35) & 0xff
			v38 := (0xa + v36) & 0xff
			var v42 uint64
			if v5 == 0x1 {
				v42 = 1
			}
			v49 := v17
			v50 := (v49 << 1) & 0xff
			v51 := (v49 + v50) & 0xff
			v53 := (0x3 + v51) & 0xff
			var v55 uint64
			if v5 == 0x2 {
				v55 = 1
			}
			var v63 uint64
			if v13 != 0 {
				v63 = 0x14
			} else {
				v63 = 0x0
			}
			v65 := (0x2 + v51) & 0xff
			v66 := (v65 + v63) & 0xff
			var v69 uint64
			if v57 == 0x0 {
				v69 = 1
			}
			var v77 uint64
			if v9 != 0x0 {
				v77 = 1
			}
			var v80 uint64
			if v77 != 0 {
				v80 = 0xc
			} else {
				v80 = 0x8
			}
			var v83 uint64
			if v44 == 0x0 {
				v83 = 1
			}
			var v87 uint64
			if v71 == 0x0 {
				v87 = 1
			}
			var v91 uint64
			if v5 == 0x0 {
				v91 = 1
			}
			var v99 uint64
			if v27 == 0x0 {
				v99 = 1
			}
			var v100 uint64
			if v94 == 0x0 {
				v100 = 1
			}
			var v101 uint64
			if v2 <= v0 {
				v101 = 1
			}
			var v103 uint64
			if v101 != 0 {
				v103 = 0x9
			} else {
				v103 = 0x1
			}
			var v117 uint64
			if v42 != 0 {
				v117 = 0x4
			} else {
				v117 = 0x5
			}
			var v118 uint64
			if v91 != 0 {
				v118 = 0x7
			} else {
				v118 = v117
			}
			v129 := (v0 + 0x1) & 0x1fff
			v134 := v21
			v136 := (v134 << 0) & 0xffffffffffff
			v137 := (v134 >> 0)
			v138 := (v136 | v137)
			v140 := (v138 + 0x1) & 0xffffffffffff
			v141 := (v138 * v140) & 0xffffffffffff
			v143 := (v142 + v141) & 0xffffffffffff
			v145 := (v134 << 1) & 0xffffffffffff
			v147 := (v134 >> 47)
			v148 := (v145 | v147)
			v150 := (v148 + 0x3) & 0xffffffffffff
			v151 := (v148 * v150) & 0xffffffffffff
			v153 := (v152 + v151) & 0xffffffffffff
			v155 := (v142 ^ v152)
			v156 := (v134 << 2) & 0xffffffffffff
			v158 := (v134 >> 46)
			v159 := (v156 | v158)
			v161 := (v159 + 0x5) & 0xffffffffffff
			v162 := (v159 * v161) & 0xffffffffffff
			v164 := (v163 + v162) & 0xffffffffffff
			v166 := (v155 ^ v163)
			v168 := (v134 << 3) & 0xffffffffffff
			v170 := (v134 >> 45)
			v171 := (v168 | v170)
			v173 := (v171 + 0x7) & 0xffffffffffff
			v174 := (v171 * v173) & 0xffffffffffff
			v176 := (v175 + v174) & 0xffffffffffff
			v178 := (v166 ^ v175)
			v180 := (v134 << 4) & 0xffffffffffff
			v182 := (v134 >> 44)
			v183 := (v180 | v182)
			v185 := (v183 + 0x9) & 0xffffffffffff
			v186 := (v183 * v185) & 0xffffffffffff
			v188 := (v187 + v186) & 0xffffffffffff
			v190 := (v178 ^ v187)
			v192 := (v134 << 5) & 0xffffffffffff
			v194 := (v134 >> 43)
			v195 := (v192 | v194)
			v197 := (v195 + 0xb) & 0xffffffffffff
			v198 := (v195 * v197) & 0xffffffffffff
			v200 := (v199 + v198) & 0xffffffffffff
			v202 := (v190 ^ v199)
			v204 := (v134 << 6) & 0xffffffffffff
			v206 := (v134 >> 42)
			v207 := (v204 | v206)
			v209 := (v207 + 0xd) & 0xffffffffffff
			v210 := (v207 * v209) & 0xffffffffffff
			v212 := (v211 + v210) & 0xffffffffffff
			v214 := (v202 ^ v211)
			v216 := (v134 << 7) & 0xffffffffffff
			v218 := (v134 >> 41)
			v219 := (v216 | v218)
			v221 := (v219 + 0xf) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v224 := (v223 + v222) & 0xffffffffffff
			v226 := (v214 ^ v223)
			v227 := (v134 << 8) & 0xffffffffffff
			v229 := (v134 >> 40)
			v230 := (v227 | v229)
			v232 := (v230 + 0x11) & 0xffffffffffff
			v233 := (v230 * v232) & 0xffffffffffff
			v235 := (v234 + v233) & 0xffffffffffff
			v237 := (v226 ^ v234)
			v238 := (v134 << 9) & 0xffffffffffff
			v240 := (v134 >> 39)
			v241 := (v238 | v240)
			v243 := (v241 + 0x13) & 0xffffffffffff
			v244 := (v241 * v243) & 0xffffffffffff
			v246 := (v245 + v244) & 0xffffffffffff
			v248 := (v237 ^ v245)
			v250 := (v134 << 10) & 0xffffffffffff
			v252 := (v134 >> 38)
			v253 := (v250 | v252)
			v255 := (v253 + 0x15) & 0xffffffffffff
			v256 := (v253 * v255) & 0xffffffffffff
			v258 := (v257 + v256) & 0xffffffffffff
			v260 := (v248 ^ v257)
			v262 := (v134 << 11) & 0xffffffffffff
			v264 := (v134 >> 37)
			v265 := (v262 | v264)
			v267 := (v265 + 0x17) & 0xffffffffffff
			v268 := (v265 * v267) & 0xffffffffffff
			v270 := (v269 + v268) & 0xffffffffffff
			v272 := (v260 ^ v269)
			v273 := (v21 * v21) & 0xffffffff
			v274 := (v9 * v9) & 0xffffffff
			v275 := (v273 + v274) & 0xffffffff
			v276 := (v275 >> 2)
			v277 := (v275 >> 1)
			v278 := (v276 + v277) & 0xffffffff
			v279 := (v278 + v275) & 0xffffffff
			v281 := v272 & 0xffffffff
			v282 := (v279 ^ v281)
			v284 := (v283 + v282) & 0xffffffff
			v291 := (v290 + 0x1) & 0xffffff
			v296 := (v295 + 0x1) & 0xffffff
			v301 := (v300 + 0x1) & 0xffffff
			v306 := (v305 + 0x1) & 0xffffff
			v311 := (v310 + 0x1) & 0xffffff
			v316 := (v315 + 0x1) & 0xffffff
			v320 := (v319 + 0x1) & 0xffffff
			v325 := (v324 + 0x1) & 0xffffff
			v329 := (v328 + 0x1) & 0xffffff
			v334 := (v333 + 0x1) & 0xffffff
			v339 := (v338 + 0x1) & 0xffffff
			v343 := (v342 + 0x1) & 0xffffff
			v346 := (v345 + 0x1) & 0xffffff
			v349 := (v348 + v24) & 0xffffff
			v352 := (v351 + v27) & 0xffffff
			v355 := (v354 + 0x1) & 0xffffff
			v358 := (v357 + v38) & 0xffffff
			v361 := (v360 + v44) & 0xffffff
			v364 := (v363 + 0x1) & 0xffffff
			v367 := (v366 + v53) & 0xffffff
			v370 := (v369 + v57) & 0xffffff
			v373 := (v372 + 0x1) & 0xffffff
			v376 := (v375 + v66) & 0xffffff
			v379 := (v378 + v71) & 0xffffff
			v382 := ^v77 & 0x1
			v386 := (v385 + 0x1) & 0xffffff
			v389 := (v388 + 0xc) & 0xffffff
			v391 := (v388 + 0x8) & 0xffffff
			v394 := (v393 + v94) & 0xffffff
			var v26 uint64
			if v22 == 0x1 {
				v26 = 1
			}
			var v33 uint64
			if v26 != 0 {
				v33 = v24
			} else {
				v33 = v32
			}
			var v40 uint64
			if v22 == 0x3 {
				v40 = 1
			}
			v43 := v40 & v42
			var v48 uint64
			if v43 != 0 {
				v48 = v38
			} else {
				v48 = v47
			}
			v56 := v40 & v55
			var v61 uint64
			if v56 != 0 {
				v61 = v53
			} else {
				v61 = v60
			}
			var v68 uint64
			if v22 == 0x5 {
				v68 = 1
			}
			v70 := v68 & v69
			var v75 uint64
			if v70 != 0 {
				v75 = v66
			} else {
				v75 = v74
			}
			var v82 uint64
			if v22 == 0x4 {
				v82 = 1
			}
			v84 := v82 & v83
			var v86 uint64
			if v22 == 0x6 {
				v86 = 1
			}
			v88 := v86 & v87
			v89 := (v84 | v88)
			v92 := v40 & v91
			v93 := (v89 | v92)
			var v98 uint64
			if v93 != 0 {
				v98 = v80
			} else {
				v98 = v97
			}
			var v105 uint64
			if v22 == 0x8 {
				v105 = 1
			}
			var v106 uint64
			if v105 != 0 {
				v106 = v103
			} else {
				v106 = v22
			}
			var v107 uint64
			if v100 != 0 {
				v107 = 0x8
			} else {
				v107 = v22
			}
			var v109 uint64
			if v22 == 0x7 {
				v109 = 1
			}
			var v110 uint64
			if v109 != 0 {
				v110 = v107
			} else {
				v110 = v106
			}
			var v111 uint64
			if v87 != 0 {
				v111 = 0x7
			} else {
				v111 = v22
			}
			var v112 uint64
			if v86 != 0 {
				v112 = v111
			} else {
				v112 = v110
			}
			var v113 uint64
			if v69 != 0 {
				v113 = 0x6
			} else {
				v113 = v22
			}
			var v114 uint64
			if v68 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v115 uint64
			if v83 != 0 {
				v115 = 0x7
			} else {
				v115 = v22
			}
			var v116 uint64
			if v82 != 0 {
				v116 = v115
			} else {
				v116 = v114
			}
			var v119 uint64
			if v40 != 0 {
				v119 = v118
			} else {
				v119 = v116
			}
			var v120 uint64
			if v99 != 0 {
				v120 = 0x3
			} else {
				v120 = v22
			}
			var v122 uint64
			if v22 == 0x2 {
				v122 = 1
			}
			var v123 uint64
			if v122 != 0 {
				v123 = v120
			} else {
				v123 = v119
			}
			var v124 uint64
			if v26 != 0 {
				v124 = 0x2
			} else {
				v124 = v123
			}
			var v126 uint64
			if v22 == 0x0 {
				v126 = 1
			}
			var v127 uint64
			if v126 != 0 {
				v127 = 0x1
			} else {
				v127 = v124
			}
			var v130 uint64
			if v105 != 0 {
				v130 = v129
			} else {
				v130 = v0
			}
			v131 := (v82 | v86)
			v132 := (v131 | v109)
			var v144 uint64
			if v132 != 0 {
				v144 = v143
			} else {
				v144 = v142
			}
			var v154 uint64
			if v132 != 0 {
				v154 = v153
			} else {
				v154 = v152
			}
			var v165 uint64
			if v132 != 0 {
				v165 = v164
			} else {
				v165 = v163
			}
			var v177 uint64
			if v132 != 0 {
				v177 = v176
			} else {
				v177 = v175
			}
			var v189 uint64
			if v132 != 0 {
				v189 = v188
			} else {
				v189 = v187
			}
			var v201 uint64
			if v132 != 0 {
				v201 = v200
			} else {
				v201 = v199
			}
			var v213 uint64
			if v132 != 0 {
				v213 = v212
			} else {
				v213 = v211
			}
			var v225 uint64
			if v132 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v236 uint64
			if v132 != 0 {
				v236 = v235
			} else {
				v236 = v234
			}
			var v247 uint64
			if v132 != 0 {
				v247 = v246
			} else {
				v247 = v245
			}
			var v259 uint64
			if v132 != 0 {
				v259 = v258
			} else {
				v259 = v257
			}
			var v271 uint64
			if v132 != 0 {
				v271 = v270
			} else {
				v271 = v269
			}
			var v285 uint64
			if v132 != 0 {
				v285 = v284
			} else {
				v285 = v283
			}
			var v286 uint64
			if v22 == 0x9 {
				v286 = 1
			}
			var v287 uint64
			if v127 == 0x1 {
				v287 = 1
			}
			v288 := v126 & v287
			var v292 uint64
			if v288 != 0 {
				v292 = v291
			} else {
				v292 = v290
			}
			var v293 uint64
			if v127 == 0x2 {
				v293 = 1
			}
			v294 := v26 & v293
			var v297 uint64
			if v294 != 0 {
				v297 = v296
			} else {
				v297 = v295
			}
			var v298 uint64
			if v127 == 0x3 {
				v298 = 1
			}
			v299 := v122 & v298
			var v302 uint64
			if v299 != 0 {
				v302 = v301
			} else {
				v302 = v300
			}
			var v303 uint64
			if v127 == 0x7 {
				v303 = 1
			}
			v304 := v40 & v303
			var v307 uint64
			if v304 != 0 {
				v307 = v306
			} else {
				v307 = v305
			}
			var v308 uint64
			if v127 == 0x4 {
				v308 = 1
			}
			v309 := v40 & v308
			var v312 uint64
			if v309 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v313 uint64
			if v127 == 0x5 {
				v313 = 1
			}
			v314 := v40 & v313
			var v317 uint64
			if v314 != 0 {
				v317 = v316
			} else {
				v317 = v315
			}
			v318 := v82 & v303
			var v321 uint64
			if v318 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v322 uint64
			if v127 == 0x6 {
				v322 = 1
			}
			v323 := v68 & v322
			var v326 uint64
			if v323 != 0 {
				v326 = v325
			} else {
				v326 = v324
			}
			v327 := v86 & v303
			var v330 uint64
			if v327 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v331 uint64
			if v127 == 0x8 {
				v331 = 1
			}
			v332 := v109 & v331
			var v335 uint64
			if v332 != 0 {
				v335 = v334
			} else {
				v335 = v333
			}
			var v336 uint64
			if v127 == 0x9 {
				v336 = 1
			}
			v337 := v105 & v336
			var v340 uint64
			if v337 != 0 {
				v340 = v339
			} else {
				v340 = v338
			}
			v341 := v105 & v287
			var v344 uint64
			if v341 != 0 {
				v344 = v343
			} else {
				v344 = v342
			}
			var v347 uint64
			if v26 != 0 {
				v347 = v346
			} else {
				v347 = v345
			}
			var v350 uint64
			if v26 != 0 {
				v350 = v349
			} else {
				v350 = v348
			}
			var v353 uint64
			if v26 != 0 {
				v353 = v352
			} else {
				v353 = v351
			}
			var v356 uint64
			if v43 != 0 {
				v356 = v355
			} else {
				v356 = v354
			}
			var v359 uint64
			if v43 != 0 {
				v359 = v358
			} else {
				v359 = v357
			}
			var v362 uint64
			if v43 != 0 {
				v362 = v361
			} else {
				v362 = v360
			}
			var v365 uint64
			if v56 != 0 {
				v365 = v364
			} else {
				v365 = v363
			}
			var v368 uint64
			if v56 != 0 {
				v368 = v367
			} else {
				v368 = v366
			}
			var v371 uint64
			if v56 != 0 {
				v371 = v370
			} else {
				v371 = v369
			}
			var v374 uint64
			if v70 != 0 {
				v374 = v373
			} else {
				v374 = v372
			}
			var v377 uint64
			if v70 != 0 {
				v377 = v376
			} else {
				v377 = v375
			}
			var v380 uint64
			if v70 != 0 {
				v380 = v379
			} else {
				v380 = v378
			}
			v381 := v93 & v77
			v383 := v93 & v382
			v384 := (v381 | v383)
			var v387 uint64
			if v384 != 0 {
				v387 = v386
			} else {
				v387 = v385
			}
			var v390 uint64
			if v381 != 0 {
				v390 = v389
			} else {
				v390 = v388
			}
			var v392 uint64
			if v383 != 0 {
				v392 = v391
			} else {
				v392 = v390
			}
			var v395 uint64
			if v384 != 0 {
				v395 = v394
			} else {
				v395 = v393
			}
			if v286 != 0 {
				break loop
			}
			if v105 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v283
				}
			}
			n0 := v130
			n1 := v127
			n2 := v33
			n3 := v48
			n4 := v61
			n5 := v75
			n6 := v98
			n7 := v144
			n8 := v154
			n9 := v165
			n10 := v177
			n11 := v189
			n12 := v201
			n13 := v213
			n14 := v225
			n15 := v236
			n16 := v247
			n17 := v259
			n18 := v271
			n19 := v285
			n20 := v292
			n21 := v297
			n22 := v302
			n23 := v307
			n24 := v312
			n25 := v317
			n26 := v321
			n27 := v326
			n28 := v330
			n29 := v335
			n30 := v340
			n31 := v344
			n32 := v347
			n33 := v350
			n34 := v353
			n35 := v356
			n36 := v359
			n37 := v362
			n38 := v365
			n39 := v368
			n40 := v371
			n41 := v374
			n42 := v377
			n43 := v380
			n44 := v387
			n45 := v392
			n46 := v395
			v0 = n0
			v22 = n1
			v27 = n2
			v44 = n3
			v57 = n4
			v71 = n5
			v94 = n6
			v142 = n7
			v152 = n8
			v163 = n9
			v175 = n10
			v187 = n11
			v199 = n12
			v211 = n13
			v223 = n14
			v234 = n15
			v245 = n16
			v257 = n17
			v269 = n18
			v283 = n19
			v290 = n20
			v295 = n21
			v300 = n22
			v305 = n23
			v310 = n24
			v315 = n25
			v319 = n26
			v324 = n27
			v328 = n28
			v333 = n29
			v338 = n30
			v342 = n31
			v345 = n32
			v348 = n33
			v351 = n34
			v354 = n35
			v357 = n36
			v360 = n37
			v363 = n38
			v366 = n39
			v369 = n40
			v372 = n41
			v375 = n42
			v378 = n43
			v385 = n44
			v388 = n45
			v393 = n46
		}
	}
	vals[0] = v0
	vals[22] = v22
	vals[27] = v27
	vals[44] = v44
	vals[57] = v57
	vals[71] = v71
	vals[94] = v94
	vals[142] = v142
	vals[152] = v152
	vals[163] = v163
	vals[175] = v175
	vals[187] = v187
	vals[199] = v199
	vals[211] = v211
	vals[223] = v223
	vals[234] = v234
	vals[245] = v245
	vals[257] = v257
	vals[269] = v269
	vals[283] = v283
	vals[290] = v290
	vals[295] = v295
	vals[300] = v300
	vals[305] = v305
	vals[310] = v310
	vals[315] = v315
	vals[319] = v319
	vals[324] = v324
	vals[328] = v328
	vals[333] = v333
	vals[338] = v338
	vals[342] = v342
	vals[345] = v345
	vals[348] = v348
	vals[351] = v351
	vals[354] = v354
	vals[357] = v357
	vals[360] = v360
	vals[363] = v363
	vals[366] = v366
	vals[369] = v369
	vals[372] = v372
	vals[375] = v375
	vals[378] = v378
	vals[385] = v385
	vals[388] = v388
	vals[393] = v393
	var v2 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v2 = m0[addr] & 0x1fff
	}
	vals[2] = v2
	var v3 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0xfffffff
	}
	vals[3] = v3
	v5 := v3 & 0x3
	vals[5] = v5
	v7 := (v3 >> 2)
	vals[7] = v7
	v9 := v7 & 0x3f
	vals[9] = v9
	v11 := (v3 >> 8)
	vals[11] = v11
	v13 := v11 & 0x1
	vals[13] = v13
	v15 := (v3 >> 9)
	vals[15] = v15
	v17 := v15 & 0x7
	vals[17] = v17
	v19 := (v3 >> 12)
	vals[19] = v19
	v21 := v19 & 0xffff
	vals[21] = v21
	v24 := (v9 >> 1)
	vals[24] = v24
	var v29 uint64
	if v27 != 0x0 {
		v29 = 1
	}
	vals[29] = v29
	v31 := (v27 - 0x1) & 0xff
	vals[31] = v31
	var v32 uint64
	if v29 != 0 {
		v32 = v31
	} else {
		v32 = v27
	}
	vals[32] = v32
	v34 := v9
	vals[34] = v34
	v35 := (v9 >> 2)
	vals[35] = v35
	v36 := (v34 - v35) & 0xff
	vals[36] = v36
	v38 := (0xa + v36) & 0xff
	vals[38] = v38
	var v42 uint64
	if v5 == 0x1 {
		v42 = 1
	}
	vals[42] = v42
	var v45 uint64
	if v44 != 0x0 {
		v45 = 1
	}
	vals[45] = v45
	v46 := (v44 - 0x1) & 0xff
	vals[46] = v46
	var v47 uint64
	if v45 != 0 {
		v47 = v46
	} else {
		v47 = v44
	}
	vals[47] = v47
	v49 := v17
	vals[49] = v49
	v50 := (v49 << 1) & 0xff
	vals[50] = v50
	v51 := (v49 + v50) & 0xff
	vals[51] = v51
	v53 := (0x3 + v51) & 0xff
	vals[53] = v53
	var v55 uint64
	if v5 == 0x2 {
		v55 = 1
	}
	vals[55] = v55
	var v58 uint64
	if v57 != 0x0 {
		v58 = 1
	}
	vals[58] = v58
	v59 := (v57 - 0x1) & 0xff
	vals[59] = v59
	var v60 uint64
	if v58 != 0 {
		v60 = v59
	} else {
		v60 = v57
	}
	vals[60] = v60
	var v63 uint64
	if v13 != 0 {
		v63 = 0x14
	} else {
		v63 = 0x0
	}
	vals[63] = v63
	v65 := (0x2 + v51) & 0xff
	vals[65] = v65
	v66 := (v65 + v63) & 0xff
	vals[66] = v66
	var v69 uint64
	if v57 == 0x0 {
		v69 = 1
	}
	vals[69] = v69
	var v72 uint64
	if v71 != 0x0 {
		v72 = 1
	}
	vals[72] = v72
	v73 := (v71 - 0x1) & 0xff
	vals[73] = v73
	var v74 uint64
	if v72 != 0 {
		v74 = v73
	} else {
		v74 = v71
	}
	vals[74] = v74
	var v77 uint64
	if v9 != 0x0 {
		v77 = 1
	}
	vals[77] = v77
	var v80 uint64
	if v77 != 0 {
		v80 = 0xc
	} else {
		v80 = 0x8
	}
	vals[80] = v80
	var v83 uint64
	if v44 == 0x0 {
		v83 = 1
	}
	vals[83] = v83
	var v87 uint64
	if v71 == 0x0 {
		v87 = 1
	}
	vals[87] = v87
	var v91 uint64
	if v5 == 0x0 {
		v91 = 1
	}
	vals[91] = v91
	var v95 uint64
	if v94 != 0x0 {
		v95 = 1
	}
	vals[95] = v95
	v96 := (v94 - 0x1) & 0xff
	vals[96] = v96
	var v97 uint64
	if v95 != 0 {
		v97 = v96
	} else {
		v97 = v94
	}
	vals[97] = v97
	var v99 uint64
	if v27 == 0x0 {
		v99 = 1
	}
	vals[99] = v99
	var v100 uint64
	if v94 == 0x0 {
		v100 = 1
	}
	vals[100] = v100
	var v101 uint64
	if v2 <= v0 {
		v101 = 1
	}
	vals[101] = v101
	var v103 uint64
	if v101 != 0 {
		v103 = 0x9
	} else {
		v103 = 0x1
	}
	vals[103] = v103
	var v117 uint64
	if v42 != 0 {
		v117 = 0x4
	} else {
		v117 = 0x5
	}
	vals[117] = v117
	var v118 uint64
	if v91 != 0 {
		v118 = 0x7
	} else {
		v118 = v117
	}
	vals[118] = v118
	v129 := (v0 + 0x1) & 0x1fff
	vals[129] = v129
	v134 := v21
	vals[134] = v134
	v136 := (v134 << 0) & 0xffffffffffff
	vals[136] = v136
	v137 := (v134 >> 0)
	vals[137] = v137
	v138 := (v136 | v137)
	vals[138] = v138
	v140 := (v138 + 0x1) & 0xffffffffffff
	vals[140] = v140
	v141 := (v138 * v140) & 0xffffffffffff
	vals[141] = v141
	v143 := (v142 + v141) & 0xffffffffffff
	vals[143] = v143
	v145 := (v134 << 1) & 0xffffffffffff
	vals[145] = v145
	v147 := (v134 >> 47)
	vals[147] = v147
	v148 := (v145 | v147)
	vals[148] = v148
	v150 := (v148 + 0x3) & 0xffffffffffff
	vals[150] = v150
	v151 := (v148 * v150) & 0xffffffffffff
	vals[151] = v151
	v153 := (v152 + v151) & 0xffffffffffff
	vals[153] = v153
	v155 := (v142 ^ v152)
	vals[155] = v155
	v156 := (v134 << 2) & 0xffffffffffff
	vals[156] = v156
	v158 := (v134 >> 46)
	vals[158] = v158
	v159 := (v156 | v158)
	vals[159] = v159
	v161 := (v159 + 0x5) & 0xffffffffffff
	vals[161] = v161
	v162 := (v159 * v161) & 0xffffffffffff
	vals[162] = v162
	v164 := (v163 + v162) & 0xffffffffffff
	vals[164] = v164
	v166 := (v155 ^ v163)
	vals[166] = v166
	v168 := (v134 << 3) & 0xffffffffffff
	vals[168] = v168
	v170 := (v134 >> 45)
	vals[170] = v170
	v171 := (v168 | v170)
	vals[171] = v171
	v173 := (v171 + 0x7) & 0xffffffffffff
	vals[173] = v173
	v174 := (v171 * v173) & 0xffffffffffff
	vals[174] = v174
	v176 := (v175 + v174) & 0xffffffffffff
	vals[176] = v176
	v178 := (v166 ^ v175)
	vals[178] = v178
	v180 := (v134 << 4) & 0xffffffffffff
	vals[180] = v180
	v182 := (v134 >> 44)
	vals[182] = v182
	v183 := (v180 | v182)
	vals[183] = v183
	v185 := (v183 + 0x9) & 0xffffffffffff
	vals[185] = v185
	v186 := (v183 * v185) & 0xffffffffffff
	vals[186] = v186
	v188 := (v187 + v186) & 0xffffffffffff
	vals[188] = v188
	v190 := (v178 ^ v187)
	vals[190] = v190
	v192 := (v134 << 5) & 0xffffffffffff
	vals[192] = v192
	v194 := (v134 >> 43)
	vals[194] = v194
	v195 := (v192 | v194)
	vals[195] = v195
	v197 := (v195 + 0xb) & 0xffffffffffff
	vals[197] = v197
	v198 := (v195 * v197) & 0xffffffffffff
	vals[198] = v198
	v200 := (v199 + v198) & 0xffffffffffff
	vals[200] = v200
	v202 := (v190 ^ v199)
	vals[202] = v202
	v204 := (v134 << 6) & 0xffffffffffff
	vals[204] = v204
	v206 := (v134 >> 42)
	vals[206] = v206
	v207 := (v204 | v206)
	vals[207] = v207
	v209 := (v207 + 0xd) & 0xffffffffffff
	vals[209] = v209
	v210 := (v207 * v209) & 0xffffffffffff
	vals[210] = v210
	v212 := (v211 + v210) & 0xffffffffffff
	vals[212] = v212
	v214 := (v202 ^ v211)
	vals[214] = v214
	v216 := (v134 << 7) & 0xffffffffffff
	vals[216] = v216
	v218 := (v134 >> 41)
	vals[218] = v218
	v219 := (v216 | v218)
	vals[219] = v219
	v221 := (v219 + 0xf) & 0xffffffffffff
	vals[221] = v221
	v222 := (v219 * v221) & 0xffffffffffff
	vals[222] = v222
	v224 := (v223 + v222) & 0xffffffffffff
	vals[224] = v224
	v226 := (v214 ^ v223)
	vals[226] = v226
	v227 := (v134 << 8) & 0xffffffffffff
	vals[227] = v227
	v229 := (v134 >> 40)
	vals[229] = v229
	v230 := (v227 | v229)
	vals[230] = v230
	v232 := (v230 + 0x11) & 0xffffffffffff
	vals[232] = v232
	v233 := (v230 * v232) & 0xffffffffffff
	vals[233] = v233
	v235 := (v234 + v233) & 0xffffffffffff
	vals[235] = v235
	v237 := (v226 ^ v234)
	vals[237] = v237
	v238 := (v134 << 9) & 0xffffffffffff
	vals[238] = v238
	v240 := (v134 >> 39)
	vals[240] = v240
	v241 := (v238 | v240)
	vals[241] = v241
	v243 := (v241 + 0x13) & 0xffffffffffff
	vals[243] = v243
	v244 := (v241 * v243) & 0xffffffffffff
	vals[244] = v244
	v246 := (v245 + v244) & 0xffffffffffff
	vals[246] = v246
	v248 := (v237 ^ v245)
	vals[248] = v248
	v250 := (v134 << 10) & 0xffffffffffff
	vals[250] = v250
	v252 := (v134 >> 38)
	vals[252] = v252
	v253 := (v250 | v252)
	vals[253] = v253
	v255 := (v253 + 0x15) & 0xffffffffffff
	vals[255] = v255
	v256 := (v253 * v255) & 0xffffffffffff
	vals[256] = v256
	v258 := (v257 + v256) & 0xffffffffffff
	vals[258] = v258
	v260 := (v248 ^ v257)
	vals[260] = v260
	v262 := (v134 << 11) & 0xffffffffffff
	vals[262] = v262
	v264 := (v134 >> 37)
	vals[264] = v264
	v265 := (v262 | v264)
	vals[265] = v265
	v267 := (v265 + 0x17) & 0xffffffffffff
	vals[267] = v267
	v268 := (v265 * v267) & 0xffffffffffff
	vals[268] = v268
	v270 := (v269 + v268) & 0xffffffffffff
	vals[270] = v270
	v272 := (v260 ^ v269)
	vals[272] = v272
	v273 := (v21 * v21) & 0xffffffff
	vals[273] = v273
	v274 := (v9 * v9) & 0xffffffff
	vals[274] = v274
	v275 := (v273 + v274) & 0xffffffff
	vals[275] = v275
	v276 := (v275 >> 2)
	vals[276] = v276
	v277 := (v275 >> 1)
	vals[277] = v277
	v278 := (v276 + v277) & 0xffffffff
	vals[278] = v278
	v279 := (v278 + v275) & 0xffffffff
	vals[279] = v279
	v281 := v272 & 0xffffffff
	vals[281] = v281
	v282 := (v279 ^ v281)
	vals[282] = v282
	v284 := (v283 + v282) & 0xffffffff
	vals[284] = v284
	v291 := (v290 + 0x1) & 0xffffff
	vals[291] = v291
	v296 := (v295 + 0x1) & 0xffffff
	vals[296] = v296
	v301 := (v300 + 0x1) & 0xffffff
	vals[301] = v301
	v306 := (v305 + 0x1) & 0xffffff
	vals[306] = v306
	v311 := (v310 + 0x1) & 0xffffff
	vals[311] = v311
	v316 := (v315 + 0x1) & 0xffffff
	vals[316] = v316
	v320 := (v319 + 0x1) & 0xffffff
	vals[320] = v320
	v325 := (v324 + 0x1) & 0xffffff
	vals[325] = v325
	v329 := (v328 + 0x1) & 0xffffff
	vals[329] = v329
	v334 := (v333 + 0x1) & 0xffffff
	vals[334] = v334
	v339 := (v338 + 0x1) & 0xffffff
	vals[339] = v339
	v343 := (v342 + 0x1) & 0xffffff
	vals[343] = v343
	v346 := (v345 + 0x1) & 0xffffff
	vals[346] = v346
	v349 := (v348 + v24) & 0xffffff
	vals[349] = v349
	v352 := (v351 + v27) & 0xffffff
	vals[352] = v352
	v355 := (v354 + 0x1) & 0xffffff
	vals[355] = v355
	v358 := (v357 + v38) & 0xffffff
	vals[358] = v358
	v361 := (v360 + v44) & 0xffffff
	vals[361] = v361
	v364 := (v363 + 0x1) & 0xffffff
	vals[364] = v364
	v367 := (v366 + v53) & 0xffffff
	vals[367] = v367
	v370 := (v369 + v57) & 0xffffff
	vals[370] = v370
	v373 := (v372 + 0x1) & 0xffffff
	vals[373] = v373
	v376 := (v375 + v66) & 0xffffff
	vals[376] = v376
	v379 := (v378 + v71) & 0xffffff
	vals[379] = v379
	v382 := ^v77 & 0x1
	vals[382] = v382
	v386 := (v385 + 0x1) & 0xffffff
	vals[386] = v386
	v389 := (v388 + 0xc) & 0xffffff
	vals[389] = v389
	v391 := (v388 + 0x8) & 0xffffff
	vals[391] = v391
	v394 := (v393 + v94) & 0xffffff
	vals[394] = v394
	switch v22 {
	case 0x0:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x0
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x0
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x0
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x0
		}
		vals[111] = v111
		vals[112] = 0x0
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x0
		}
		vals[113] = v113
		vals[114] = 0x0
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x0
		}
		vals[115] = v115
		vals[116] = 0x0
		vals[119] = 0x0
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x0
		}
		vals[120] = v120
		vals[122] = 0x0
		vals[123] = 0x0
		vals[124] = 0x0
		vals[126] = 0x1
		vals[127] = 0x1
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
		vals[287] = 0x1
		vals[288] = 0x1
		v292 := v291
		vals[292] = v292
		vals[293] = 0x0
		vals[294] = 0x0
		v297 := v295
		vals[297] = v297
		vals[298] = 0x0
		vals[299] = 0x0
		v302 := v300
		vals[302] = v302
		vals[303] = 0x0
		vals[304] = 0x0
		v307 := v305
		vals[307] = v307
		vals[308] = 0x0
		vals[309] = 0x0
		v312 := v310
		vals[312] = v312
		vals[313] = 0x0
		vals[314] = 0x0
		v317 := v315
		vals[317] = v317
		vals[318] = 0x0
		v321 := v319
		vals[321] = v321
		vals[322] = 0x0
		vals[323] = 0x0
		v326 := v324
		vals[326] = v326
		vals[327] = 0x0
		v330 := v328
		vals[330] = v330
		vals[331] = 0x0
		vals[332] = 0x0
		v335 := v333
		vals[335] = v335
		vals[336] = 0x0
		vals[337] = 0x0
		v340 := v338
		vals[340] = v340
		vals[341] = 0x0
		v344 := v342
		vals[344] = v344
		v347 := v345
		vals[347] = v347
		v350 := v348
		vals[350] = v350
		v353 := v351
		vals[353] = v353
		v356 := v354
		vals[356] = v356
		v359 := v357
		vals[359] = v359
		v362 := v360
		vals[362] = v362
		v365 := v363
		vals[365] = v365
		v368 := v366
		vals[368] = v368
		v371 := v369
		vals[371] = v371
		v374 := v372
		vals[374] = v374
		v377 := v375
		vals[377] = v377
		v380 := v378
		vals[380] = v380
		vals[381] = 0x0
		vals[383] = 0x0
		vals[384] = 0x0
		v387 := v385
		vals[387] = v387
		v390 := v388
		vals[390] = v390
		v392 := v390
		vals[392] = v392
		v395 := v393
		vals[395] = v395
	case 0x1:
		vals[26] = 0x1
		v33 := v24
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x1
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x1
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x1
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x1
		}
		vals[111] = v111
		vals[112] = 0x1
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x1
		}
		vals[113] = v113
		vals[114] = 0x1
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x1
		}
		vals[115] = v115
		vals[116] = 0x1
		vals[119] = 0x1
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x1
		}
		vals[120] = v120
		vals[122] = 0x0
		vals[123] = 0x1
		vals[124] = 0x2
		vals[126] = 0x0
		vals[127] = 0x2
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
		vals[287] = 0x0
		vals[288] = 0x0
		v292 := v290
		vals[292] = v292
		vals[293] = 0x1
		vals[294] = 0x1
		v297 := v296
		vals[297] = v297
		vals[298] = 0x0
		vals[299] = 0x0
		v302 := v300
		vals[302] = v302
		vals[303] = 0x0
		vals[304] = 0x0
		v307 := v305
		vals[307] = v307
		vals[308] = 0x0
		vals[309] = 0x0
		v312 := v310
		vals[312] = v312
		vals[313] = 0x0
		vals[314] = 0x0
		v317 := v315
		vals[317] = v317
		vals[318] = 0x0
		v321 := v319
		vals[321] = v321
		vals[322] = 0x0
		vals[323] = 0x0
		v326 := v324
		vals[326] = v326
		vals[327] = 0x0
		v330 := v328
		vals[330] = v330
		vals[331] = 0x0
		vals[332] = 0x0
		v335 := v333
		vals[335] = v335
		vals[336] = 0x0
		vals[337] = 0x0
		v340 := v338
		vals[340] = v340
		vals[341] = 0x0
		v344 := v342
		vals[344] = v344
		v347 := v346
		vals[347] = v347
		v350 := v349
		vals[350] = v350
		v353 := v352
		vals[353] = v353
		v356 := v354
		vals[356] = v356
		v359 := v357
		vals[359] = v359
		v362 := v360
		vals[362] = v362
		v365 := v363
		vals[365] = v365
		v368 := v366
		vals[368] = v368
		v371 := v369
		vals[371] = v371
		v374 := v372
		vals[374] = v374
		v377 := v375
		vals[377] = v377
		v380 := v378
		vals[380] = v380
		vals[381] = 0x0
		vals[383] = 0x0
		vals[384] = 0x0
		v387 := v385
		vals[387] = v387
		v390 := v388
		vals[390] = v390
		v392 := v390
		vals[392] = v392
		v395 := v393
		vals[395] = v395
	case 0x2:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x2
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x2
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x2
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x2
		}
		vals[111] = v111
		vals[112] = 0x2
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x2
		}
		vals[113] = v113
		vals[114] = 0x2
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x2
		}
		vals[115] = v115
		vals[116] = 0x2
		vals[119] = 0x2
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x2
		}
		vals[120] = v120
		vals[122] = 0x1
		v123 := v120
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
		var v287 uint64
		if v127 == 0x1 {
			v287 = 1
		}
		vals[287] = v287
		vals[288] = 0x0
		v292 := v290
		vals[292] = v292
		var v293 uint64
		if v127 == 0x2 {
			v293 = 1
		}
		vals[293] = v293
		vals[294] = 0x0
		v297 := v295
		vals[297] = v297
		var v298 uint64
		if v127 == 0x3 {
			v298 = 1
		}
		vals[298] = v298
		v299 := v298
		vals[299] = v299
		var v302 uint64
		if v299 != 0 {
			v302 = v301
		} else {
			v302 = v300
		}
		vals[302] = v302
		var v303 uint64
		if v127 == 0x7 {
			v303 = 1
		}
		vals[303] = v303
		vals[304] = 0x0
		v307 := v305
		vals[307] = v307
		var v308 uint64
		if v127 == 0x4 {
			v308 = 1
		}
		vals[308] = v308
		vals[309] = 0x0
		v312 := v310
		vals[312] = v312
		var v313 uint64
		if v127 == 0x5 {
			v313 = 1
		}
		vals[313] = v313
		vals[314] = 0x0
		v317 := v315
		vals[317] = v317
		vals[318] = 0x0
		v321 := v319
		vals[321] = v321
		var v322 uint64
		if v127 == 0x6 {
			v322 = 1
		}
		vals[322] = v322
		vals[323] = 0x0
		v326 := v324
		vals[326] = v326
		vals[327] = 0x0
		v330 := v328
		vals[330] = v330
		var v331 uint64
		if v127 == 0x8 {
			v331 = 1
		}
		vals[331] = v331
		vals[332] = 0x0
		v335 := v333
		vals[335] = v335
		var v336 uint64
		if v127 == 0x9 {
			v336 = 1
		}
		vals[336] = v336
		vals[337] = 0x0
		v340 := v338
		vals[340] = v340
		vals[341] = 0x0
		v344 := v342
		vals[344] = v344
		v347 := v345
		vals[347] = v347
		v350 := v348
		vals[350] = v350
		v353 := v351
		vals[353] = v353
		v356 := v354
		vals[356] = v356
		v359 := v357
		vals[359] = v359
		v362 := v360
		vals[362] = v362
		v365 := v363
		vals[365] = v365
		v368 := v366
		vals[368] = v368
		v371 := v369
		vals[371] = v371
		v374 := v372
		vals[374] = v374
		v377 := v375
		vals[377] = v377
		v380 := v378
		vals[380] = v380
		vals[381] = 0x0
		vals[383] = 0x0
		vals[384] = 0x0
		v387 := v385
		vals[387] = v387
		v390 := v388
		vals[390] = v390
		v392 := v390
		vals[392] = v392
		v395 := v393
		vals[395] = v395
	case 0x3:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x1
		v43 := v42
		vals[43] = v43
		var v48 uint64
		if v43 != 0 {
			v48 = v38
		} else {
			v48 = v47
		}
		vals[48] = v48
		v56 := v55
		vals[56] = v56
		var v61 uint64
		if v56 != 0 {
			v61 = v53
		} else {
			v61 = v60
		}
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		v92 := v91
		vals[92] = v92
		v93 := v92
		vals[93] = v93
		var v98 uint64
		if v93 != 0 {
			v98 = v80
		} else {
			v98 = v97
		}
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x3
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x3
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x3
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x3
		}
		vals[111] = v111
		vals[112] = 0x3
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x3
		}
		vals[113] = v113
		vals[114] = 0x3
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x3
		}
		vals[115] = v115
		vals[116] = 0x3
		v119 := v118
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x3
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
		var v287 uint64
		if v127 == 0x1 {
			v287 = 1
		}
		vals[287] = v287
		vals[288] = 0x0
		v292 := v290
		vals[292] = v292
		var v293 uint64
		if v127 == 0x2 {
			v293 = 1
		}
		vals[293] = v293
		vals[294] = 0x0
		v297 := v295
		vals[297] = v297
		var v298 uint64
		if v127 == 0x3 {
			v298 = 1
		}
		vals[298] = v298
		vals[299] = 0x0
		v302 := v300
		vals[302] = v302
		var v303 uint64
		if v127 == 0x7 {
			v303 = 1
		}
		vals[303] = v303
		v304 := v303
		vals[304] = v304
		var v307 uint64
		if v304 != 0 {
			v307 = v306
		} else {
			v307 = v305
		}
		vals[307] = v307
		var v308 uint64
		if v127 == 0x4 {
			v308 = 1
		}
		vals[308] = v308
		v309 := v308
		vals[309] = v309
		var v312 uint64
		if v309 != 0 {
			v312 = v311
		} else {
			v312 = v310
		}
		vals[312] = v312
		var v313 uint64
		if v127 == 0x5 {
			v313 = 1
		}
		vals[313] = v313
		v314 := v313
		vals[314] = v314
		var v317 uint64
		if v314 != 0 {
			v317 = v316
		} else {
			v317 = v315
		}
		vals[317] = v317
		vals[318] = 0x0
		v321 := v319
		vals[321] = v321
		var v322 uint64
		if v127 == 0x6 {
			v322 = 1
		}
		vals[322] = v322
		vals[323] = 0x0
		v326 := v324
		vals[326] = v326
		vals[327] = 0x0
		v330 := v328
		vals[330] = v330
		var v331 uint64
		if v127 == 0x8 {
			v331 = 1
		}
		vals[331] = v331
		vals[332] = 0x0
		v335 := v333
		vals[335] = v335
		var v336 uint64
		if v127 == 0x9 {
			v336 = 1
		}
		vals[336] = v336
		vals[337] = 0x0
		v340 := v338
		vals[340] = v340
		vals[341] = 0x0
		v344 := v342
		vals[344] = v344
		v347 := v345
		vals[347] = v347
		v350 := v348
		vals[350] = v350
		v353 := v351
		vals[353] = v353
		var v356 uint64
		if v43 != 0 {
			v356 = v355
		} else {
			v356 = v354
		}
		vals[356] = v356
		var v359 uint64
		if v43 != 0 {
			v359 = v358
		} else {
			v359 = v357
		}
		vals[359] = v359
		var v362 uint64
		if v43 != 0 {
			v362 = v361
		} else {
			v362 = v360
		}
		vals[362] = v362
		var v365 uint64
		if v56 != 0 {
			v365 = v364
		} else {
			v365 = v363
		}
		vals[365] = v365
		var v368 uint64
		if v56 != 0 {
			v368 = v367
		} else {
			v368 = v366
		}
		vals[368] = v368
		var v371 uint64
		if v56 != 0 {
			v371 = v370
		} else {
			v371 = v369
		}
		vals[371] = v371
		v374 := v372
		vals[374] = v374
		v377 := v375
		vals[377] = v377
		v380 := v378
		vals[380] = v380
		v381 := v93 & v77
		vals[381] = v381
		v383 := v93 & v382
		vals[383] = v383
		v384 := (v381 | v383)
		vals[384] = v384
		var v387 uint64
		if v384 != 0 {
			v387 = v386
		} else {
			v387 = v385
		}
		vals[387] = v387
		var v390 uint64
		if v381 != 0 {
			v390 = v389
		} else {
			v390 = v388
		}
		vals[390] = v390
		var v392 uint64
		if v383 != 0 {
			v392 = v391
		} else {
			v392 = v390
		}
		vals[392] = v392
		var v395 uint64
		if v384 != 0 {
			v395 = v394
		} else {
			v395 = v393
		}
		vals[395] = v395
	case 0x4:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x1
		v84 := v83
		vals[84] = v84
		vals[86] = 0x0
		vals[88] = 0x0
		v89 := v84
		vals[89] = v89
		vals[92] = 0x0
		v93 := v89
		vals[93] = v93
		var v98 uint64
		if v93 != 0 {
			v98 = v80
		} else {
			v98 = v97
		}
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x4
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x4
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x4
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x4
		}
		vals[111] = v111
		vals[112] = 0x4
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x4
		}
		vals[113] = v113
		vals[114] = 0x4
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x4
		}
		vals[115] = v115
		v116 := v115
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x4
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x1
		vals[132] = 0x1
		v144 := v143
		vals[144] = v144
		v154 := v153
		vals[154] = v154
		v165 := v164
		vals[165] = v165
		v177 := v176
		vals[177] = v177
		v189 := v188
		vals[189] = v189
		v201 := v200
		vals[201] = v201
		v213 := v212
		vals[213] = v213
		v225 := v224
		vals[225] = v225
		v236 := v235
		vals[236] = v236
		v247 := v246
		vals[247] = v247
		v259 := v258
		vals[259] = v259
		v271 := v270
		vals[271] = v271
		v285 := v284
		vals[285] = v285
		vals[286] = 0x0
		var v287 uint64
		if v127 == 0x1 {
			v287 = 1
		}
		vals[287] = v287
		vals[288] = 0x0
		v292 := v290
		vals[292] = v292
		var v293 uint64
		if v127 == 0x2 {
			v293 = 1
		}
		vals[293] = v293
		vals[294] = 0x0
		v297 := v295
		vals[297] = v297
		var v298 uint64
		if v127 == 0x3 {
			v298 = 1
		}
		vals[298] = v298
		vals[299] = 0x0
		v302 := v300
		vals[302] = v302
		var v303 uint64
		if v127 == 0x7 {
			v303 = 1
		}
		vals[303] = v303
		vals[304] = 0x0
		v307 := v305
		vals[307] = v307
		var v308 uint64
		if v127 == 0x4 {
			v308 = 1
		}
		vals[308] = v308
		vals[309] = 0x0
		v312 := v310
		vals[312] = v312
		var v313 uint64
		if v127 == 0x5 {
			v313 = 1
		}
		vals[313] = v313
		vals[314] = 0x0
		v317 := v315
		vals[317] = v317
		v318 := v303
		vals[318] = v318
		var v321 uint64
		if v318 != 0 {
			v321 = v320
		} else {
			v321 = v319
		}
		vals[321] = v321
		var v322 uint64
		if v127 == 0x6 {
			v322 = 1
		}
		vals[322] = v322
		vals[323] = 0x0
		v326 := v324
		vals[326] = v326
		vals[327] = 0x0
		v330 := v328
		vals[330] = v330
		var v331 uint64
		if v127 == 0x8 {
			v331 = 1
		}
		vals[331] = v331
		vals[332] = 0x0
		v335 := v333
		vals[335] = v335
		var v336 uint64
		if v127 == 0x9 {
			v336 = 1
		}
		vals[336] = v336
		vals[337] = 0x0
		v340 := v338
		vals[340] = v340
		vals[341] = 0x0
		v344 := v342
		vals[344] = v344
		v347 := v345
		vals[347] = v347
		v350 := v348
		vals[350] = v350
		v353 := v351
		vals[353] = v353
		v356 := v354
		vals[356] = v356
		v359 := v357
		vals[359] = v359
		v362 := v360
		vals[362] = v362
		v365 := v363
		vals[365] = v365
		v368 := v366
		vals[368] = v368
		v371 := v369
		vals[371] = v371
		v374 := v372
		vals[374] = v374
		v377 := v375
		vals[377] = v377
		v380 := v378
		vals[380] = v380
		v381 := v93 & v77
		vals[381] = v381
		v383 := v93 & v382
		vals[383] = v383
		v384 := (v381 | v383)
		vals[384] = v384
		var v387 uint64
		if v384 != 0 {
			v387 = v386
		} else {
			v387 = v385
		}
		vals[387] = v387
		var v390 uint64
		if v381 != 0 {
			v390 = v389
		} else {
			v390 = v388
		}
		vals[390] = v390
		var v392 uint64
		if v383 != 0 {
			v392 = v391
		} else {
			v392 = v390
		}
		vals[392] = v392
		var v395 uint64
		if v384 != 0 {
			v395 = v394
		} else {
			v395 = v393
		}
		vals[395] = v395
	case 0x5:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x1
		v70 := v69
		vals[70] = v70
		var v75 uint64
		if v70 != 0 {
			v75 = v66
		} else {
			v75 = v74
		}
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x5
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x5
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x5
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x5
		}
		vals[111] = v111
		vals[112] = 0x5
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x5
		}
		vals[113] = v113
		v114 := v113
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x5
		}
		vals[115] = v115
		v116 := v114
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x5
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
		var v287 uint64
		if v127 == 0x1 {
			v287 = 1
		}
		vals[287] = v287
		vals[288] = 0x0
		v292 := v290
		vals[292] = v292
		var v293 uint64
		if v127 == 0x2 {
			v293 = 1
		}
		vals[293] = v293
		vals[294] = 0x0
		v297 := v295
		vals[297] = v297
		var v298 uint64
		if v127 == 0x3 {
			v298 = 1
		}
		vals[298] = v298
		vals[299] = 0x0
		v302 := v300
		vals[302] = v302
		var v303 uint64
		if v127 == 0x7 {
			v303 = 1
		}
		vals[303] = v303
		vals[304] = 0x0
		v307 := v305
		vals[307] = v307
		var v308 uint64
		if v127 == 0x4 {
			v308 = 1
		}
		vals[308] = v308
		vals[309] = 0x0
		v312 := v310
		vals[312] = v312
		var v313 uint64
		if v127 == 0x5 {
			v313 = 1
		}
		vals[313] = v313
		vals[314] = 0x0
		v317 := v315
		vals[317] = v317
		vals[318] = 0x0
		v321 := v319
		vals[321] = v321
		var v322 uint64
		if v127 == 0x6 {
			v322 = 1
		}
		vals[322] = v322
		v323 := v322
		vals[323] = v323
		var v326 uint64
		if v323 != 0 {
			v326 = v325
		} else {
			v326 = v324
		}
		vals[326] = v326
		vals[327] = 0x0
		v330 := v328
		vals[330] = v330
		var v331 uint64
		if v127 == 0x8 {
			v331 = 1
		}
		vals[331] = v331
		vals[332] = 0x0
		v335 := v333
		vals[335] = v335
		var v336 uint64
		if v127 == 0x9 {
			v336 = 1
		}
		vals[336] = v336
		vals[337] = 0x0
		v340 := v338
		vals[340] = v340
		vals[341] = 0x0
		v344 := v342
		vals[344] = v344
		v347 := v345
		vals[347] = v347
		v350 := v348
		vals[350] = v350
		v353 := v351
		vals[353] = v353
		v356 := v354
		vals[356] = v356
		v359 := v357
		vals[359] = v359
		v362 := v360
		vals[362] = v362
		v365 := v363
		vals[365] = v365
		v368 := v366
		vals[368] = v368
		v371 := v369
		vals[371] = v371
		var v374 uint64
		if v70 != 0 {
			v374 = v373
		} else {
			v374 = v372
		}
		vals[374] = v374
		var v377 uint64
		if v70 != 0 {
			v377 = v376
		} else {
			v377 = v375
		}
		vals[377] = v377
		var v380 uint64
		if v70 != 0 {
			v380 = v379
		} else {
			v380 = v378
		}
		vals[380] = v380
		vals[381] = 0x0
		vals[383] = 0x0
		vals[384] = 0x0
		v387 := v385
		vals[387] = v387
		v390 := v388
		vals[390] = v390
		v392 := v390
		vals[392] = v392
		v395 := v393
		vals[395] = v395
	case 0x6:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x1
		v88 := v87
		vals[88] = v88
		v89 := v88
		vals[89] = v89
		vals[92] = 0x0
		v93 := v89
		vals[93] = v93
		var v98 uint64
		if v93 != 0 {
			v98 = v80
		} else {
			v98 = v97
		}
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x6
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x6
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x6
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x6
		}
		vals[111] = v111
		v112 := v111
		vals[112] = v112
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x6
		}
		vals[113] = v113
		v114 := v112
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x6
		}
		vals[115] = v115
		v116 := v114
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x6
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x1
		vals[132] = 0x1
		v144 := v143
		vals[144] = v144
		v154 := v153
		vals[154] = v154
		v165 := v164
		vals[165] = v165
		v177 := v176
		vals[177] = v177
		v189 := v188
		vals[189] = v189
		v201 := v200
		vals[201] = v201
		v213 := v212
		vals[213] = v213
		v225 := v224
		vals[225] = v225
		v236 := v235
		vals[236] = v236
		v247 := v246
		vals[247] = v247
		v259 := v258
		vals[259] = v259
		v271 := v270
		vals[271] = v271
		v285 := v284
		vals[285] = v285
		vals[286] = 0x0
		var v287 uint64
		if v127 == 0x1 {
			v287 = 1
		}
		vals[287] = v287
		vals[288] = 0x0
		v292 := v290
		vals[292] = v292
		var v293 uint64
		if v127 == 0x2 {
			v293 = 1
		}
		vals[293] = v293
		vals[294] = 0x0
		v297 := v295
		vals[297] = v297
		var v298 uint64
		if v127 == 0x3 {
			v298 = 1
		}
		vals[298] = v298
		vals[299] = 0x0
		v302 := v300
		vals[302] = v302
		var v303 uint64
		if v127 == 0x7 {
			v303 = 1
		}
		vals[303] = v303
		vals[304] = 0x0
		v307 := v305
		vals[307] = v307
		var v308 uint64
		if v127 == 0x4 {
			v308 = 1
		}
		vals[308] = v308
		vals[309] = 0x0
		v312 := v310
		vals[312] = v312
		var v313 uint64
		if v127 == 0x5 {
			v313 = 1
		}
		vals[313] = v313
		vals[314] = 0x0
		v317 := v315
		vals[317] = v317
		vals[318] = 0x0
		v321 := v319
		vals[321] = v321
		var v322 uint64
		if v127 == 0x6 {
			v322 = 1
		}
		vals[322] = v322
		vals[323] = 0x0
		v326 := v324
		vals[326] = v326
		v327 := v303
		vals[327] = v327
		var v330 uint64
		if v327 != 0 {
			v330 = v329
		} else {
			v330 = v328
		}
		vals[330] = v330
		var v331 uint64
		if v127 == 0x8 {
			v331 = 1
		}
		vals[331] = v331
		vals[332] = 0x0
		v335 := v333
		vals[335] = v335
		var v336 uint64
		if v127 == 0x9 {
			v336 = 1
		}
		vals[336] = v336
		vals[337] = 0x0
		v340 := v338
		vals[340] = v340
		vals[341] = 0x0
		v344 := v342
		vals[344] = v344
		v347 := v345
		vals[347] = v347
		v350 := v348
		vals[350] = v350
		v353 := v351
		vals[353] = v353
		v356 := v354
		vals[356] = v356
		v359 := v357
		vals[359] = v359
		v362 := v360
		vals[362] = v362
		v365 := v363
		vals[365] = v365
		v368 := v366
		vals[368] = v368
		v371 := v369
		vals[371] = v371
		v374 := v372
		vals[374] = v374
		v377 := v375
		vals[377] = v377
		v380 := v378
		vals[380] = v380
		v381 := v93 & v77
		vals[381] = v381
		v383 := v93 & v382
		vals[383] = v383
		v384 := (v381 | v383)
		vals[384] = v384
		var v387 uint64
		if v384 != 0 {
			v387 = v386
		} else {
			v387 = v385
		}
		vals[387] = v387
		var v390 uint64
		if v381 != 0 {
			v390 = v389
		} else {
			v390 = v388
		}
		vals[390] = v390
		var v392 uint64
		if v383 != 0 {
			v392 = v391
		} else {
			v392 = v390
		}
		vals[392] = v392
		var v395 uint64
		if v384 != 0 {
			v395 = v394
		} else {
			v395 = v393
		}
		vals[395] = v395
	case 0x7:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x7
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x7
		}
		vals[107] = v107
		vals[109] = 0x1
		v110 := v107
		vals[110] = v110
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x7
		}
		vals[111] = v111
		v112 := v110
		vals[112] = v112
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x7
		}
		vals[113] = v113
		v114 := v112
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x7
		}
		vals[115] = v115
		v116 := v114
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x7
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x1
		v144 := v143
		vals[144] = v144
		v154 := v153
		vals[154] = v154
		v165 := v164
		vals[165] = v165
		v177 := v176
		vals[177] = v177
		v189 := v188
		vals[189] = v189
		v201 := v200
		vals[201] = v201
		v213 := v212
		vals[213] = v213
		v225 := v224
		vals[225] = v225
		v236 := v235
		vals[236] = v236
		v247 := v246
		vals[247] = v247
		v259 := v258
		vals[259] = v259
		v271 := v270
		vals[271] = v271
		v285 := v284
		vals[285] = v285
		vals[286] = 0x0
		var v287 uint64
		if v127 == 0x1 {
			v287 = 1
		}
		vals[287] = v287
		vals[288] = 0x0
		v292 := v290
		vals[292] = v292
		var v293 uint64
		if v127 == 0x2 {
			v293 = 1
		}
		vals[293] = v293
		vals[294] = 0x0
		v297 := v295
		vals[297] = v297
		var v298 uint64
		if v127 == 0x3 {
			v298 = 1
		}
		vals[298] = v298
		vals[299] = 0x0
		v302 := v300
		vals[302] = v302
		var v303 uint64
		if v127 == 0x7 {
			v303 = 1
		}
		vals[303] = v303
		vals[304] = 0x0
		v307 := v305
		vals[307] = v307
		var v308 uint64
		if v127 == 0x4 {
			v308 = 1
		}
		vals[308] = v308
		vals[309] = 0x0
		v312 := v310
		vals[312] = v312
		var v313 uint64
		if v127 == 0x5 {
			v313 = 1
		}
		vals[313] = v313
		vals[314] = 0x0
		v317 := v315
		vals[317] = v317
		vals[318] = 0x0
		v321 := v319
		vals[321] = v321
		var v322 uint64
		if v127 == 0x6 {
			v322 = 1
		}
		vals[322] = v322
		vals[323] = 0x0
		v326 := v324
		vals[326] = v326
		vals[327] = 0x0
		v330 := v328
		vals[330] = v330
		var v331 uint64
		if v127 == 0x8 {
			v331 = 1
		}
		vals[331] = v331
		v332 := v331
		vals[332] = v332
		var v335 uint64
		if v332 != 0 {
			v335 = v334
		} else {
			v335 = v333
		}
		vals[335] = v335
		var v336 uint64
		if v127 == 0x9 {
			v336 = 1
		}
		vals[336] = v336
		vals[337] = 0x0
		v340 := v338
		vals[340] = v340
		vals[341] = 0x0
		v344 := v342
		vals[344] = v344
		v347 := v345
		vals[347] = v347
		v350 := v348
		vals[350] = v350
		v353 := v351
		vals[353] = v353
		v356 := v354
		vals[356] = v356
		v359 := v357
		vals[359] = v359
		v362 := v360
		vals[362] = v362
		v365 := v363
		vals[365] = v365
		v368 := v366
		vals[368] = v368
		v371 := v369
		vals[371] = v371
		v374 := v372
		vals[374] = v374
		v377 := v375
		vals[377] = v377
		v380 := v378
		vals[380] = v380
		vals[381] = 0x0
		vals[383] = 0x0
		vals[384] = 0x0
		v387 := v385
		vals[387] = v387
		v390 := v388
		vals[390] = v390
		v392 := v390
		vals[392] = v392
		v395 := v393
		vals[395] = v395
	case 0x8:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x1
		v106 := v103
		vals[106] = v106
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x8
		}
		vals[107] = v107
		vals[109] = 0x0
		v110 := v106
		vals[110] = v110
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x8
		}
		vals[111] = v111
		v112 := v110
		vals[112] = v112
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x8
		}
		vals[113] = v113
		v114 := v112
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x8
		}
		vals[115] = v115
		v116 := v114
		vals[116] = v116
		v119 := v116
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x8
		}
		vals[120] = v120
		vals[122] = 0x0
		v123 := v119
		vals[123] = v123
		v124 := v123
		vals[124] = v124
		vals[126] = 0x0
		v127 := v124
		vals[127] = v127
		v130 := v129
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x0
		var v287 uint64
		if v127 == 0x1 {
			v287 = 1
		}
		vals[287] = v287
		vals[288] = 0x0
		v292 := v290
		vals[292] = v292
		var v293 uint64
		if v127 == 0x2 {
			v293 = 1
		}
		vals[293] = v293
		vals[294] = 0x0
		v297 := v295
		vals[297] = v297
		var v298 uint64
		if v127 == 0x3 {
			v298 = 1
		}
		vals[298] = v298
		vals[299] = 0x0
		v302 := v300
		vals[302] = v302
		var v303 uint64
		if v127 == 0x7 {
			v303 = 1
		}
		vals[303] = v303
		vals[304] = 0x0
		v307 := v305
		vals[307] = v307
		var v308 uint64
		if v127 == 0x4 {
			v308 = 1
		}
		vals[308] = v308
		vals[309] = 0x0
		v312 := v310
		vals[312] = v312
		var v313 uint64
		if v127 == 0x5 {
			v313 = 1
		}
		vals[313] = v313
		vals[314] = 0x0
		v317 := v315
		vals[317] = v317
		vals[318] = 0x0
		v321 := v319
		vals[321] = v321
		var v322 uint64
		if v127 == 0x6 {
			v322 = 1
		}
		vals[322] = v322
		vals[323] = 0x0
		v326 := v324
		vals[326] = v326
		vals[327] = 0x0
		v330 := v328
		vals[330] = v330
		var v331 uint64
		if v127 == 0x8 {
			v331 = 1
		}
		vals[331] = v331
		vals[332] = 0x0
		v335 := v333
		vals[335] = v335
		var v336 uint64
		if v127 == 0x9 {
			v336 = 1
		}
		vals[336] = v336
		v337 := v336
		vals[337] = v337
		var v340 uint64
		if v337 != 0 {
			v340 = v339
		} else {
			v340 = v338
		}
		vals[340] = v340
		v341 := v287
		vals[341] = v341
		var v344 uint64
		if v341 != 0 {
			v344 = v343
		} else {
			v344 = v342
		}
		vals[344] = v344
		v347 := v345
		vals[347] = v347
		v350 := v348
		vals[350] = v350
		v353 := v351
		vals[353] = v353
		v356 := v354
		vals[356] = v356
		v359 := v357
		vals[359] = v359
		v362 := v360
		vals[362] = v362
		v365 := v363
		vals[365] = v365
		v368 := v366
		vals[368] = v368
		v371 := v369
		vals[371] = v371
		v374 := v372
		vals[374] = v374
		v377 := v375
		vals[377] = v377
		v380 := v378
		vals[380] = v380
		vals[381] = 0x0
		vals[383] = 0x0
		vals[384] = 0x0
		v387 := v385
		vals[387] = v387
		v390 := v388
		vals[390] = v390
		v392 := v390
		vals[392] = v392
		v395 := v393
		vals[395] = v395
	case 0x9:
		vals[26] = 0x0
		v33 := v32
		vals[33] = v33
		vals[40] = 0x0
		vals[43] = 0x0
		v48 := v47
		vals[48] = v48
		vals[56] = 0x0
		v61 := v60
		vals[61] = v61
		vals[68] = 0x0
		vals[70] = 0x0
		v75 := v74
		vals[75] = v75
		vals[82] = 0x0
		vals[84] = 0x0
		vals[86] = 0x0
		vals[88] = 0x0
		vals[89] = 0x0
		vals[92] = 0x0
		vals[93] = 0x0
		v98 := v97
		vals[98] = v98
		vals[105] = 0x0
		vals[106] = 0x9
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = 0x9
		}
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x9
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = 0x9
		}
		vals[111] = v111
		vals[112] = 0x9
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = 0x9
		}
		vals[113] = v113
		vals[114] = 0x9
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = 0x9
		}
		vals[115] = v115
		vals[116] = 0x9
		vals[119] = 0x9
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = 0x9
		}
		vals[120] = v120
		vals[122] = 0x0
		vals[123] = 0x9
		vals[124] = 0x9
		vals[126] = 0x0
		vals[127] = 0x9
		v130 := v0
		vals[130] = v130
		vals[131] = 0x0
		vals[132] = 0x0
		v144 := v142
		vals[144] = v144
		v154 := v152
		vals[154] = v154
		v165 := v163
		vals[165] = v165
		v177 := v175
		vals[177] = v177
		v189 := v187
		vals[189] = v189
		v201 := v199
		vals[201] = v201
		v213 := v211
		vals[213] = v213
		v225 := v223
		vals[225] = v225
		v236 := v234
		vals[236] = v236
		v247 := v245
		vals[247] = v247
		v259 := v257
		vals[259] = v259
		v271 := v269
		vals[271] = v271
		v285 := v283
		vals[285] = v285
		vals[286] = 0x1
		vals[287] = 0x0
		vals[288] = 0x0
		v292 := v290
		vals[292] = v292
		vals[293] = 0x0
		vals[294] = 0x0
		v297 := v295
		vals[297] = v297
		vals[298] = 0x0
		vals[299] = 0x0
		v302 := v300
		vals[302] = v302
		vals[303] = 0x0
		vals[304] = 0x0
		v307 := v305
		vals[307] = v307
		vals[308] = 0x0
		vals[309] = 0x0
		v312 := v310
		vals[312] = v312
		vals[313] = 0x0
		vals[314] = 0x0
		v317 := v315
		vals[317] = v317
		vals[318] = 0x0
		v321 := v319
		vals[321] = v321
		vals[322] = 0x0
		vals[323] = 0x0
		v326 := v324
		vals[326] = v326
		vals[327] = 0x0
		v330 := v328
		vals[330] = v330
		vals[331] = 0x0
		vals[332] = 0x0
		v335 := v333
		vals[335] = v335
		vals[336] = 0x1
		vals[337] = 0x0
		v340 := v338
		vals[340] = v340
		vals[341] = 0x0
		v344 := v342
		vals[344] = v344
		v347 := v345
		vals[347] = v347
		v350 := v348
		vals[350] = v350
		v353 := v351
		vals[353] = v353
		v356 := v354
		vals[356] = v356
		v359 := v357
		vals[359] = v359
		v362 := v360
		vals[362] = v362
		v365 := v363
		vals[365] = v365
		v368 := v366
		vals[368] = v368
		v371 := v369
		vals[371] = v371
		v374 := v372
		vals[374] = v374
		v377 := v375
		vals[377] = v377
		v380 := v378
		vals[380] = v380
		vals[381] = 0x0
		vals[383] = 0x0
		vals[384] = 0x0
		v387 := v385
		vals[387] = v387
		v390 := v388
		vals[390] = v390
		v392 := v390
		vals[392] = v392
		v395 := v393
		vals[395] = v395
	default:
		var v26 uint64
		if v22 == 0x1 {
			v26 = 1
		}
		vals[26] = v26
		var v33 uint64
		if v26 != 0 {
			v33 = v24
		} else {
			v33 = v32
		}
		vals[33] = v33
		var v40 uint64
		if v22 == 0x3 {
			v40 = 1
		}
		vals[40] = v40
		v43 := v40 & v42
		vals[43] = v43
		var v48 uint64
		if v43 != 0 {
			v48 = v38
		} else {
			v48 = v47
		}
		vals[48] = v48
		v56 := v40 & v55
		vals[56] = v56
		var v61 uint64
		if v56 != 0 {
			v61 = v53
		} else {
			v61 = v60
		}
		vals[61] = v61
		var v68 uint64
		if v22 == 0x5 {
			v68 = 1
		}
		vals[68] = v68
		v70 := v68 & v69
		vals[70] = v70
		var v75 uint64
		if v70 != 0 {
			v75 = v66
		} else {
			v75 = v74
		}
		vals[75] = v75
		var v82 uint64
		if v22 == 0x4 {
			v82 = 1
		}
		vals[82] = v82
		v84 := v82 & v83
		vals[84] = v84
		var v86 uint64
		if v22 == 0x6 {
			v86 = 1
		}
		vals[86] = v86
		v88 := v86 & v87
		vals[88] = v88
		v89 := (v84 | v88)
		vals[89] = v89
		v92 := v40 & v91
		vals[92] = v92
		v93 := (v89 | v92)
		vals[93] = v93
		var v98 uint64
		if v93 != 0 {
			v98 = v80
		} else {
			v98 = v97
		}
		vals[98] = v98
		var v105 uint64
		if v22 == 0x8 {
			v105 = 1
		}
		vals[105] = v105
		var v106 uint64
		if v105 != 0 {
			v106 = v103
		} else {
			v106 = v22
		}
		vals[106] = v106
		var v107 uint64
		if v100 != 0 {
			v107 = 0x8
		} else {
			v107 = v22
		}
		vals[107] = v107
		var v109 uint64
		if v22 == 0x7 {
			v109 = 1
		}
		vals[109] = v109
		var v110 uint64
		if v109 != 0 {
			v110 = v107
		} else {
			v110 = v106
		}
		vals[110] = v110
		var v111 uint64
		if v87 != 0 {
			v111 = 0x7
		} else {
			v111 = v22
		}
		vals[111] = v111
		var v112 uint64
		if v86 != 0 {
			v112 = v111
		} else {
			v112 = v110
		}
		vals[112] = v112
		var v113 uint64
		if v69 != 0 {
			v113 = 0x6
		} else {
			v113 = v22
		}
		vals[113] = v113
		var v114 uint64
		if v68 != 0 {
			v114 = v113
		} else {
			v114 = v112
		}
		vals[114] = v114
		var v115 uint64
		if v83 != 0 {
			v115 = 0x7
		} else {
			v115 = v22
		}
		vals[115] = v115
		var v116 uint64
		if v82 != 0 {
			v116 = v115
		} else {
			v116 = v114
		}
		vals[116] = v116
		var v119 uint64
		if v40 != 0 {
			v119 = v118
		} else {
			v119 = v116
		}
		vals[119] = v119
		var v120 uint64
		if v99 != 0 {
			v120 = 0x3
		} else {
			v120 = v22
		}
		vals[120] = v120
		var v122 uint64
		if v22 == 0x2 {
			v122 = 1
		}
		vals[122] = v122
		var v123 uint64
		if v122 != 0 {
			v123 = v120
		} else {
			v123 = v119
		}
		vals[123] = v123
		var v124 uint64
		if v26 != 0 {
			v124 = 0x2
		} else {
			v124 = v123
		}
		vals[124] = v124
		var v126 uint64
		if v22 == 0x0 {
			v126 = 1
		}
		vals[126] = v126
		var v127 uint64
		if v126 != 0 {
			v127 = 0x1
		} else {
			v127 = v124
		}
		vals[127] = v127
		var v130 uint64
		if v105 != 0 {
			v130 = v129
		} else {
			v130 = v0
		}
		vals[130] = v130
		v131 := (v82 | v86)
		vals[131] = v131
		v132 := (v131 | v109)
		vals[132] = v132
		var v144 uint64
		if v132 != 0 {
			v144 = v143
		} else {
			v144 = v142
		}
		vals[144] = v144
		var v154 uint64
		if v132 != 0 {
			v154 = v153
		} else {
			v154 = v152
		}
		vals[154] = v154
		var v165 uint64
		if v132 != 0 {
			v165 = v164
		} else {
			v165 = v163
		}
		vals[165] = v165
		var v177 uint64
		if v132 != 0 {
			v177 = v176
		} else {
			v177 = v175
		}
		vals[177] = v177
		var v189 uint64
		if v132 != 0 {
			v189 = v188
		} else {
			v189 = v187
		}
		vals[189] = v189
		var v201 uint64
		if v132 != 0 {
			v201 = v200
		} else {
			v201 = v199
		}
		vals[201] = v201
		var v213 uint64
		if v132 != 0 {
			v213 = v212
		} else {
			v213 = v211
		}
		vals[213] = v213
		var v225 uint64
		if v132 != 0 {
			v225 = v224
		} else {
			v225 = v223
		}
		vals[225] = v225
		var v236 uint64
		if v132 != 0 {
			v236 = v235
		} else {
			v236 = v234
		}
		vals[236] = v236
		var v247 uint64
		if v132 != 0 {
			v247 = v246
		} else {
			v247 = v245
		}
		vals[247] = v247
		var v259 uint64
		if v132 != 0 {
			v259 = v258
		} else {
			v259 = v257
		}
		vals[259] = v259
		var v271 uint64
		if v132 != 0 {
			v271 = v270
		} else {
			v271 = v269
		}
		vals[271] = v271
		var v285 uint64
		if v132 != 0 {
			v285 = v284
		} else {
			v285 = v283
		}
		vals[285] = v285
		var v286 uint64
		if v22 == 0x9 {
			v286 = 1
		}
		vals[286] = v286
		var v287 uint64
		if v127 == 0x1 {
			v287 = 1
		}
		vals[287] = v287
		v288 := v126 & v287
		vals[288] = v288
		var v292 uint64
		if v288 != 0 {
			v292 = v291
		} else {
			v292 = v290
		}
		vals[292] = v292
		var v293 uint64
		if v127 == 0x2 {
			v293 = 1
		}
		vals[293] = v293
		v294 := v26 & v293
		vals[294] = v294
		var v297 uint64
		if v294 != 0 {
			v297 = v296
		} else {
			v297 = v295
		}
		vals[297] = v297
		var v298 uint64
		if v127 == 0x3 {
			v298 = 1
		}
		vals[298] = v298
		v299 := v122 & v298
		vals[299] = v299
		var v302 uint64
		if v299 != 0 {
			v302 = v301
		} else {
			v302 = v300
		}
		vals[302] = v302
		var v303 uint64
		if v127 == 0x7 {
			v303 = 1
		}
		vals[303] = v303
		v304 := v40 & v303
		vals[304] = v304
		var v307 uint64
		if v304 != 0 {
			v307 = v306
		} else {
			v307 = v305
		}
		vals[307] = v307
		var v308 uint64
		if v127 == 0x4 {
			v308 = 1
		}
		vals[308] = v308
		v309 := v40 & v308
		vals[309] = v309
		var v312 uint64
		if v309 != 0 {
			v312 = v311
		} else {
			v312 = v310
		}
		vals[312] = v312
		var v313 uint64
		if v127 == 0x5 {
			v313 = 1
		}
		vals[313] = v313
		v314 := v40 & v313
		vals[314] = v314
		var v317 uint64
		if v314 != 0 {
			v317 = v316
		} else {
			v317 = v315
		}
		vals[317] = v317
		v318 := v82 & v303
		vals[318] = v318
		var v321 uint64
		if v318 != 0 {
			v321 = v320
		} else {
			v321 = v319
		}
		vals[321] = v321
		var v322 uint64
		if v127 == 0x6 {
			v322 = 1
		}
		vals[322] = v322
		v323 := v68 & v322
		vals[323] = v323
		var v326 uint64
		if v323 != 0 {
			v326 = v325
		} else {
			v326 = v324
		}
		vals[326] = v326
		v327 := v86 & v303
		vals[327] = v327
		var v330 uint64
		if v327 != 0 {
			v330 = v329
		} else {
			v330 = v328
		}
		vals[330] = v330
		var v331 uint64
		if v127 == 0x8 {
			v331 = 1
		}
		vals[331] = v331
		v332 := v109 & v331
		vals[332] = v332
		var v335 uint64
		if v332 != 0 {
			v335 = v334
		} else {
			v335 = v333
		}
		vals[335] = v335
		var v336 uint64
		if v127 == 0x9 {
			v336 = 1
		}
		vals[336] = v336
		v337 := v105 & v336
		vals[337] = v337
		var v340 uint64
		if v337 != 0 {
			v340 = v339
		} else {
			v340 = v338
		}
		vals[340] = v340
		v341 := v105 & v287
		vals[341] = v341
		var v344 uint64
		if v341 != 0 {
			v344 = v343
		} else {
			v344 = v342
		}
		vals[344] = v344
		var v347 uint64
		if v26 != 0 {
			v347 = v346
		} else {
			v347 = v345
		}
		vals[347] = v347
		var v350 uint64
		if v26 != 0 {
			v350 = v349
		} else {
			v350 = v348
		}
		vals[350] = v350
		var v353 uint64
		if v26 != 0 {
			v353 = v352
		} else {
			v353 = v351
		}
		vals[353] = v353
		var v356 uint64
		if v43 != 0 {
			v356 = v355
		} else {
			v356 = v354
		}
		vals[356] = v356
		var v359 uint64
		if v43 != 0 {
			v359 = v358
		} else {
			v359 = v357
		}
		vals[359] = v359
		var v362 uint64
		if v43 != 0 {
			v362 = v361
		} else {
			v362 = v360
		}
		vals[362] = v362
		var v365 uint64
		if v56 != 0 {
			v365 = v364
		} else {
			v365 = v363
		}
		vals[365] = v365
		var v368 uint64
		if v56 != 0 {
			v368 = v367
		} else {
			v368 = v366
		}
		vals[368] = v368
		var v371 uint64
		if v56 != 0 {
			v371 = v370
		} else {
			v371 = v369
		}
		vals[371] = v371
		var v374 uint64
		if v70 != 0 {
			v374 = v373
		} else {
			v374 = v372
		}
		vals[374] = v374
		var v377 uint64
		if v70 != 0 {
			v377 = v376
		} else {
			v377 = v375
		}
		vals[377] = v377
		var v380 uint64
		if v70 != 0 {
			v380 = v379
		} else {
			v380 = v378
		}
		vals[380] = v380
		v381 := v93 & v77
		vals[381] = v381
		v383 := v93 & v382
		vals[383] = v383
		v384 := (v381 | v383)
		vals[384] = v384
		var v387 uint64
		if v384 != 0 {
			v387 = v386
		} else {
			v387 = v385
		}
		vals[387] = v387
		var v390 uint64
		if v381 != 0 {
			v390 = v389
		} else {
			v390 = v388
		}
		vals[390] = v390
		var v392 uint64
		if v383 != 0 {
			v392 = v391
		} else {
			v392 = v390
		}
		vals[392] = v392
		var v395 uint64
		if v384 != 0 {
			v395 = v394
		} else {
			v395 = v393
		}
		vals[395] = v395
	}
	done := vals[286] != 0
	if vals[105] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[283]
		}
	}
	l0 := vals[130] & 0x1fff
	l1 := vals[127] & 0xf
	l2 := vals[33] & 0xff
	l3 := vals[48] & 0xff
	l4 := vals[61] & 0xff
	l5 := vals[75] & 0xff
	l6 := vals[98] & 0xff
	l7 := vals[144] & 0xffffffffffff
	l8 := vals[154] & 0xffffffffffff
	l9 := vals[165] & 0xffffffffffff
	l10 := vals[177] & 0xffffffffffff
	l11 := vals[189] & 0xffffffffffff
	l12 := vals[201] & 0xffffffffffff
	l13 := vals[213] & 0xffffffffffff
	l14 := vals[225] & 0xffffffffffff
	l15 := vals[236] & 0xffffffffffff
	l16 := vals[247] & 0xffffffffffff
	l17 := vals[259] & 0xffffffffffff
	l18 := vals[271] & 0xffffffffffff
	l19 := vals[285] & 0xffffffff
	l20 := vals[292] & 0xffffff
	l21 := vals[297] & 0xffffff
	l22 := vals[302] & 0xffffff
	l23 := vals[307] & 0xffffff
	l24 := vals[312] & 0xffffff
	l25 := vals[317] & 0xffffff
	l26 := vals[321] & 0xffffff
	l27 := vals[326] & 0xffffff
	l28 := vals[330] & 0xffffff
	l29 := vals[335] & 0xffffff
	l30 := vals[340] & 0xffffff
	l31 := vals[344] & 0xffffff
	l32 := vals[347] & 0xffffff
	l33 := vals[350] & 0xffffff
	l34 := vals[353] & 0xffffff
	l35 := vals[356] & 0xffffff
	l36 := vals[359] & 0xffffff
	l37 := vals[362] & 0xffffff
	l38 := vals[365] & 0xffffff
	l39 := vals[368] & 0xffffff
	l40 := vals[371] & 0xffffff
	l41 := vals[374] & 0xffffff
	l42 := vals[377] & 0xffffff
	l43 := vals[380] & 0xffffff
	l44 := vals[387] & 0xffffff
	l45 := vals[392] & 0xffffff
	l46 := vals[395] & 0xffffff
	vals[0] = l0
	vals[22] = l1
	vals[27] = l2
	vals[44] = l3
	vals[57] = l4
	vals[71] = l5
	vals[94] = l6
	vals[142] = l7
	vals[152] = l8
	vals[163] = l9
	vals[175] = l10
	vals[187] = l11
	vals[199] = l12
	vals[211] = l13
	vals[223] = l14
	vals[234] = l15
	vals[245] = l16
	vals[257] = l17
	vals[269] = l18
	vals[283] = l19
	vals[290] = l20
	vals[295] = l21
	vals[300] = l22
	vals[305] = l23
	vals[310] = l24
	vals[315] = l25
	vals[319] = l26
	vals[324] = l27
	vals[328] = l28
	vals[333] = l29
	vals[338] = l30
	vals[342] = l31
	vals[345] = l32
	vals[348] = l33
	vals[351] = l34
	vals[354] = l35
	vals[357] = l36
	vals[360] = l37
	vals[363] = l38
	vals[366] = l39
	vals[369] = l40
	vals[372] = l41
	vals[375] = l42
	vals[378] = l43
	vals[385] = l44
	vals[388] = l45
	vals[393] = l46
	return cycles + 1, done
}

func step_h264_pruned(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[358]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v13 := vals[13]
	v32 := vals[32]
	v36 := vals[36]
	v41 := vals[41]
	v45 := vals[45]
	v127 := vals[127]
	v141 := vals[141]
	v148 := vals[148]
	v155 := vals[155]
	v163 := vals[163]
	v171 := vals[171]
	v179 := vals[179]
	v187 := vals[187]
	v195 := vals[195]
	v202 := vals[202]
	v209 := vals[209]
	v217 := vals[217]
	v225 := vals[225]
	v249 := vals[249]
	v255 := vals[255]
	v260 := vals[260]
	v265 := vals[265]
	v270 := vals[270]
	v275 := vals[275]
	v280 := vals[280]
	v284 := vals[284]
	v289 := vals[289]
	v293 := vals[293]
	v298 := vals[298]
	v303 := vals[303]
	v307 := vals[307]
	v310 := vals[310]
	v313 := vals[313]
	v316 := vals[316]
	v319 := vals[319]
	v322 := vals[322]
	v325 := vals[325]
	v328 := vals[328]
	v331 := vals[331]
	v334 := vals[334]
	v337 := vals[337]
	v340 := vals[340]
	v343 := vals[343]
	v350 := vals[350]
	v355 := vals[355]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v79 uint64
		if v32 != 0x0 {
			v79 = 1
		}
		v80 := (v32 - 0x1) & 0xff
		var v81 uint64
		if v79 != 0 {
			v81 = v80
		} else {
			v81 = v32
		}
		var v95 uint64
		if v36 != 0x0 {
			v95 = 1
		}
		v96 := (v36 - 0x1) & 0xff
		var v97 uint64
		if v95 != 0 {
			v97 = v96
		} else {
			v97 = v36
		}
		var v109 uint64
		if v41 != 0x0 {
			v109 = 1
		}
		v110 := (v41 - 0x1) & 0xff
		var v111 uint64
		if v109 != 0 {
			v111 = v110
		} else {
			v111 = v41
		}
		var v123 uint64
		if v45 != 0x0 {
			v123 = 1
		}
		v124 := (v45 - 0x1) & 0xff
		var v125 uint64
		if v123 != 0 {
			v125 = v124
		} else {
			v125 = v45
		}
		switch v1 {
		case 0x0:
			var v68 uint64
			if v13 != 0x0 {
				v68 = 1
			}
			v70 := (v13 - 0x1) & 0xff
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v13
			}
			v253 := (v249 + 0x1) & 0xffffff
			v6 := v0
			v72 := v71
			v82 := v81
			v98 := v97
			v112 := v111
			v126 := v125
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			v254 := v253
			v259 := v255
			v264 := v260
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			v288 := v284
			v292 := v289
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v307
			v312 := v310
			v315 := v313
			v318 := v316
			v321 := v319
			v324 := v322
			v327 := v325
			v330 := v328
			v333 := v331
			v336 := v334
			v339 := v337
			v342 := v340
			v349 := v343
			v353 := v350
			v354 := v353
			v357 := v355
			n0 := v6
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = 0x1
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		case 0x1:
			var v19 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v19 = m0[addr] & 0xfffffff
			}
			v63 := (v19 >> 2)
			v65 := v63 & 0x3f
			v67 := (v65 >> 1)
			v258 := (v255 + 0x1) & 0xffffff
			v308 := (v307 + 0x1) & 0xffffff
			v311 := (v310 + v67) & 0xffffff
			v314 := (v313 + v13) & 0xffffff
			v6 := v0
			v72 := v67
			v82 := v81
			v98 := v97
			v112 := v111
			v126 := v125
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			v254 := v249
			v259 := v258
			v264 := v260
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			v288 := v284
			v292 := v289
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v308
			v312 := v311
			v315 := v314
			v318 := v316
			v321 := v319
			v324 := v322
			v327 := v325
			v330 := v328
			v333 := v331
			v336 := v334
			v339 := v337
			v342 := v340
			v349 := v343
			v353 := v350
			v354 := v353
			v357 := v355
			n0 := v6
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = 0x2
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		case 0x2:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v68 uint64
			if v13 != 0x0 {
				v68 = 1
			}
			v70 := (v13 - 0x1) & 0xff
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v13
			}
			v263 := (v260 + 0x1) & 0xffffff
			v6 := v0
			var v17 uint64
			if v15 != 0 {
				v17 = 0x3
			} else {
				v17 = 0x2
			}
			v59 := v17
			v60 := v59
			v61 := v60
			v72 := v71
			v82 := v81
			v98 := v97
			v112 := v111
			v126 := v125
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			v254 := v249
			v259 := v255
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			v288 := v284
			v292 := v289
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v307
			v312 := v310
			v315 := v313
			v318 := v316
			v321 := v319
			v324 := v322
			v327 := v325
			v330 := v328
			v333 := v331
			v336 := v334
			v339 := v337
			v342 := v340
			v349 := v343
			v353 := v350
			v354 := v353
			v357 := v355
			n0 := v6
			n1 := v61
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = n1
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		case 0x3:
			var v19 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v19 = m0[addr] & 0xfffffff
			}
			v21 := v19 & 0x3
			var v23 uint64
			if v21 == 0x0 {
				v23 = 1
			}
			var v26 uint64
			if v21 == 0x1 {
				v26 = 1
			}
			var v29 uint64
			if v26 != 0 {
				v29 = 0x4
			} else {
				v29 = 0x5
			}
			var v30 uint64
			if v23 != 0 {
				v30 = 0x7
			} else {
				v30 = v29
			}
			v63 := (v19 >> 2)
			v65 := v63 & 0x3f
			var v68 uint64
			if v13 != 0x0 {
				v68 = 1
			}
			v70 := (v13 - 0x1) & 0xff
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v13
			}
			v75 := v65
			v76 := (v65 >> 2)
			v77 := (v75 - v76) & 0xff
			v78 := (0xa + v77) & 0xff
			var v84 uint64
			if v21 == 0x2 {
				v84 = 1
			}
			v88 := (v19 >> 9)
			v90 := v88 & 0x7
			v91 := v90
			v92 := (v91 << 1) & 0xff
			v93 := (v91 + v92) & 0xff
			v94 := (0x3 + v93) & 0xff
			var v119 uint64
			if v65 != 0x0 {
				v119 = 1
			}
			var v122 uint64
			if v119 != 0 {
				v122 = 0xc
			} else {
				v122 = 0x8
			}
			v268 := (v265 + 0x1) & 0xffffff
			v273 := (v270 + 0x1) & 0xffffff
			v278 := (v275 + 0x1) & 0xffffff
			v317 := (v316 + 0x1) & 0xffffff
			v320 := (v319 + v78) & 0xffffff
			v323 := (v322 + v32) & 0xffffff
			v326 := (v325 + 0x1) & 0xffffff
			v329 := (v328 + v94) & 0xffffff
			v332 := (v331 + v36) & 0xffffff
			v345 := ^v119 & 0x1
			v348 := (v343 + 0x1) & 0xffffff
			v351 := (v350 + 0x8) & 0xffffff
			v352 := (v350 + 0xc) & 0xffffff
			v356 := (v355 + v45) & 0xffffff
			v6 := v0
			v58 := v30
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v73 := v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v112 := v111
			v116 := v23
			v117 := v116
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			v254 := v249
			v259 := v255
			v264 := v260
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v283 := v280
			v288 := v284
			v292 := v289
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v307
			v312 := v310
			v315 := v313
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			v336 := v334
			v339 := v337
			v342 := v340
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			n0 := v6
			n1 := v61
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = n1
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		case 0x4:
			var v19 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v19 = m0[addr] & 0xfffffff
			}
			var v33 uint64
			if v32 == 0x0 {
				v33 = 1
			}
			v63 := (v19 >> 2)
			v65 := v63 & 0x3f
			var v68 uint64
			if v13 != 0x0 {
				v68 = 1
			}
			v70 := (v13 - 0x1) & 0xff
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v13
			}
			var v119 uint64
			if v65 != 0x0 {
				v119 = 1
			}
			var v122 uint64
			if v119 != 0 {
				v122 = 0xc
			} else {
				v122 = 0x8
			}
			v131 := (v19 >> 12)
			v133 := v131 & 0xffff
			v135 := v133
			v137 := (v135 + 0x1) & 0xffffffffffff
			v138 := (v135 * v137) & 0xffffffffffff
			v139 := (v127 + v138) & 0xffffffffffff
			v142 := (v135 << 1) & 0xffffffffffff
			v144 := (v142 + 0x3) & 0xffffffffffff
			v145 := (v142 * v144) & 0xffffffffffff
			v146 := (v141 + v145) & 0xffffffffffff
			v149 := (v135 << 2) & 0xffffffffffff
			v151 := (v149 + 0x5) & 0xffffffffffff
			v152 := (v149 * v151) & 0xffffffffffff
			v153 := (v148 + v152) & 0xffffffffffff
			v157 := (v135 << 3) & 0xffffffffffff
			v159 := (v157 + 0x7) & 0xffffffffffff
			v160 := (v157 * v159) & 0xffffffffffff
			v161 := (v155 + v160) & 0xffffffffffff
			v165 := (v135 << 4) & 0xffffffffffff
			v167 := (v165 + 0x9) & 0xffffffffffff
			v168 := (v165 * v167) & 0xffffffffffff
			v169 := (v163 + v168) & 0xffffffffffff
			v173 := (v135 << 5) & 0xffffffffffff
			v175 := (v173 + 0xb) & 0xffffffffffff
			v176 := (v173 * v175) & 0xffffffffffff
			v177 := (v171 + v176) & 0xffffffffffff
			v181 := (v135 << 6) & 0xffffffffffff
			v183 := (v181 + 0xd) & 0xffffffffffff
			v184 := (v181 * v183) & 0xffffffffffff
			v185 := (v179 + v184) & 0xffffffffffff
			v189 := (v135 << 7) & 0xffffffffffff
			v191 := (v189 + 0xf) & 0xffffffffffff
			v192 := (v189 * v191) & 0xffffffffffff
			v193 := (v187 + v192) & 0xffffffffffff
			v196 := (v135 << 8) & 0xffffffffffff
			v198 := (v196 + 0x11) & 0xffffffffffff
			v199 := (v196 * v198) & 0xffffffffffff
			v200 := (v195 + v199) & 0xffffffffffff
			v203 := (v135 << 9) & 0xffffffffffff
			v205 := (v203 + 0x13) & 0xffffffffffff
			v206 := (v203 * v205) & 0xffffffffffff
			v207 := (v202 + v206) & 0xffffffffffff
			v211 := (v135 << 10) & 0xffffffffffff
			v213 := (v211 + 0x15) & 0xffffffffffff
			v214 := (v211 * v213) & 0xffffffffffff
			v215 := (v209 + v214) & 0xffffffffffff
			v219 := (v135 << 11) & 0xffffffffffff
			v221 := (v219 + 0x17) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v223 := (v217 + v222) & 0xffffffffffff
			v226 := (v133 * v133) & 0xffffffff
			v227 := (v65 * v65) & 0xffffffff
			v228 := (v226 + v227) & 0xffffffff
			v229 := (v228 >> 2)
			v230 := (v228 >> 1)
			v231 := (v229 + v230) & 0xffffffff
			v232 := (v231 + v228) & 0xffffffff
			v233 := (v127 ^ v141)
			v234 := (v233 ^ v148)
			v235 := (v234 ^ v155)
			v236 := (v235 ^ v163)
			v237 := (v236 ^ v171)
			v238 := (v237 ^ v179)
			v239 := (v238 ^ v187)
			v240 := (v239 ^ v195)
			v241 := (v240 ^ v202)
			v242 := (v241 ^ v209)
			v243 := (v242 ^ v217)
			v245 := v243 & 0xffffffff
			v246 := (v232 ^ v245)
			v247 := (v225 + v246) & 0xffffffff
			v282 := (v280 + 0x1) & 0xffffff
			v345 := ^v119 & 0x1
			v348 := (v343 + 0x1) & 0xffffff
			v351 := (v350 + 0x8) & 0xffffff
			v352 := (v350 + 0xc) & 0xffffff
			v356 := (v355 + v45) & 0xffffff
			v6 := v0
			var v34 uint64
			if v33 != 0 {
				v34 = 0x7
			} else {
				v34 = 0x4
			}
			v57 := v34
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v82 := v81
			v98 := v97
			v112 := v111
			v113 := v33
			v115 := v113
			v117 := v115
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v139
			v147 := v146
			v154 := v153
			v162 := v161
			v170 := v169
			v178 := v177
			v186 := v185
			v194 := v193
			v201 := v200
			v208 := v207
			v216 := v215
			v224 := v223
			v248 := v247
			v254 := v249
			v259 := v255
			v264 := v260
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v269 := v265
			v274 := v270
			v279 := v275
			v281 := v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			v288 := v284
			v292 := v289
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v307
			v312 := v310
			v315 := v313
			v318 := v316
			v321 := v319
			v324 := v322
			v327 := v325
			v330 := v328
			v333 := v331
			v336 := v334
			v339 := v337
			v342 := v340
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			n0 := v6
			n1 := v61
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = n1
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		case 0x5:
			var v19 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v19 = m0[addr] & 0xfffffff
			}
			var v37 uint64
			if v36 == 0x0 {
				v37 = 1
			}
			var v68 uint64
			if v13 != 0x0 {
				v68 = 1
			}
			v70 := (v13 - 0x1) & 0xff
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v13
			}
			v88 := (v19 >> 9)
			v90 := v88 & 0x7
			v91 := v90
			v92 := (v91 << 1) & 0xff
			v93 := (v91 + v92) & 0xff
			v101 := (0x2 + v93) & 0xff
			v103 := (v19 >> 8)
			v105 := v103 & 0x1
			var v107 uint64
			if v105 != 0 {
				v107 = 0x14
			} else {
				v107 = 0x0
			}
			v108 := (v101 + v107) & 0xff
			v287 := (v284 + 0x1) & 0xffffff
			v335 := (v334 + 0x1) & 0xffffff
			v338 := (v337 + v108) & 0xffffff
			v341 := (v340 + v41) & 0xffffff
			v6 := v0
			var v39 uint64
			if v37 != 0 {
				v39 = 0x6
			} else {
				v39 = 0x5
			}
			v56 := v39
			v57 := v56
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v82 := v81
			v98 := v97
			v99 := v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v126 := v125
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			v254 := v249
			v259 := v255
			v264 := v260
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v292 := v289
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v307
			v312 := v310
			v315 := v313
			v318 := v316
			v321 := v319
			v324 := v322
			v327 := v325
			v330 := v328
			v333 := v331
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v349 := v343
			v353 := v350
			v354 := v353
			v357 := v355
			n0 := v6
			n1 := v61
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = n1
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		case 0x6:
			var v19 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v19 = m0[addr] & 0xfffffff
			}
			var v42 uint64
			if v41 == 0x0 {
				v42 = 1
			}
			v63 := (v19 >> 2)
			v65 := v63 & 0x3f
			var v68 uint64
			if v13 != 0x0 {
				v68 = 1
			}
			v70 := (v13 - 0x1) & 0xff
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v13
			}
			var v119 uint64
			if v65 != 0x0 {
				v119 = 1
			}
			var v122 uint64
			if v119 != 0 {
				v122 = 0xc
			} else {
				v122 = 0x8
			}
			v131 := (v19 >> 12)
			v133 := v131 & 0xffff
			v135 := v133
			v137 := (v135 + 0x1) & 0xffffffffffff
			v138 := (v135 * v137) & 0xffffffffffff
			v139 := (v127 + v138) & 0xffffffffffff
			v142 := (v135 << 1) & 0xffffffffffff
			v144 := (v142 + 0x3) & 0xffffffffffff
			v145 := (v142 * v144) & 0xffffffffffff
			v146 := (v141 + v145) & 0xffffffffffff
			v149 := (v135 << 2) & 0xffffffffffff
			v151 := (v149 + 0x5) & 0xffffffffffff
			v152 := (v149 * v151) & 0xffffffffffff
			v153 := (v148 + v152) & 0xffffffffffff
			v157 := (v135 << 3) & 0xffffffffffff
			v159 := (v157 + 0x7) & 0xffffffffffff
			v160 := (v157 * v159) & 0xffffffffffff
			v161 := (v155 + v160) & 0xffffffffffff
			v165 := (v135 << 4) & 0xffffffffffff
			v167 := (v165 + 0x9) & 0xffffffffffff
			v168 := (v165 * v167) & 0xffffffffffff
			v169 := (v163 + v168) & 0xffffffffffff
			v173 := (v135 << 5) & 0xffffffffffff
			v175 := (v173 + 0xb) & 0xffffffffffff
			v176 := (v173 * v175) & 0xffffffffffff
			v177 := (v171 + v176) & 0xffffffffffff
			v181 := (v135 << 6) & 0xffffffffffff
			v183 := (v181 + 0xd) & 0xffffffffffff
			v184 := (v181 * v183) & 0xffffffffffff
			v185 := (v179 + v184) & 0xffffffffffff
			v189 := (v135 << 7) & 0xffffffffffff
			v191 := (v189 + 0xf) & 0xffffffffffff
			v192 := (v189 * v191) & 0xffffffffffff
			v193 := (v187 + v192) & 0xffffffffffff
			v196 := (v135 << 8) & 0xffffffffffff
			v198 := (v196 + 0x11) & 0xffffffffffff
			v199 := (v196 * v198) & 0xffffffffffff
			v200 := (v195 + v199) & 0xffffffffffff
			v203 := (v135 << 9) & 0xffffffffffff
			v205 := (v203 + 0x13) & 0xffffffffffff
			v206 := (v203 * v205) & 0xffffffffffff
			v207 := (v202 + v206) & 0xffffffffffff
			v211 := (v135 << 10) & 0xffffffffffff
			v213 := (v211 + 0x15) & 0xffffffffffff
			v214 := (v211 * v213) & 0xffffffffffff
			v215 := (v209 + v214) & 0xffffffffffff
			v219 := (v135 << 11) & 0xffffffffffff
			v221 := (v219 + 0x17) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v223 := (v217 + v222) & 0xffffffffffff
			v226 := (v133 * v133) & 0xffffffff
			v227 := (v65 * v65) & 0xffffffff
			v228 := (v226 + v227) & 0xffffffff
			v229 := (v228 >> 2)
			v230 := (v228 >> 1)
			v231 := (v229 + v230) & 0xffffffff
			v232 := (v231 + v228) & 0xffffffff
			v233 := (v127 ^ v141)
			v234 := (v233 ^ v148)
			v235 := (v234 ^ v155)
			v236 := (v235 ^ v163)
			v237 := (v236 ^ v171)
			v238 := (v237 ^ v179)
			v239 := (v238 ^ v187)
			v240 := (v239 ^ v195)
			v241 := (v240 ^ v202)
			v242 := (v241 ^ v209)
			v243 := (v242 ^ v217)
			v245 := v243 & 0xffffffff
			v246 := (v232 ^ v245)
			v247 := (v225 + v246) & 0xffffffff
			v291 := (v289 + 0x1) & 0xffffff
			v345 := ^v119 & 0x1
			v348 := (v343 + 0x1) & 0xffffff
			v351 := (v350 + 0x8) & 0xffffff
			v352 := (v350 + 0xc) & 0xffffff
			v356 := (v355 + v45) & 0xffffff
			v6 := v0
			var v43 uint64
			if v42 != 0 {
				v43 = 0x7
			} else {
				v43 = 0x6
			}
			v55 := v43
			v56 := v55
			v57 := v56
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v82 := v81
			v98 := v97
			v112 := v111
			v114 := v42
			v115 := v114
			v117 := v115
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v140 := v139
			v147 := v146
			v154 := v153
			v162 := v161
			v170 := v169
			v178 := v177
			v186 := v185
			v194 := v193
			v201 := v200
			v208 := v207
			v216 := v215
			v224 := v223
			v248 := v247
			v254 := v249
			v259 := v255
			v264 := v260
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			v288 := v284
			v290 := v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			v297 := v293
			v302 := v298
			v306 := v303
			v309 := v307
			v312 := v310
			v315 := v313
			v318 := v316
			v321 := v319
			v324 := v322
			v327 := v325
			v330 := v328
			v333 := v331
			v336 := v334
			v339 := v337
			v342 := v340
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			n0 := v6
			n1 := v61
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = n1
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		case 0x7:
			var v19 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v19 = m0[addr] & 0xfffffff
			}
			var v46 uint64
			if v45 == 0x0 {
				v46 = 1
			}
			v63 := (v19 >> 2)
			v65 := v63 & 0x3f
			var v68 uint64
			if v13 != 0x0 {
				v68 = 1
			}
			v70 := (v13 - 0x1) & 0xff
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v13
			}
			v131 := (v19 >> 12)
			v133 := v131 & 0xffff
			v135 := v133
			v137 := (v135 + 0x1) & 0xffffffffffff
			v138 := (v135 * v137) & 0xffffffffffff
			v139 := (v127 + v138) & 0xffffffffffff
			v142 := (v135 << 1) & 0xffffffffffff
			v144 := (v142 + 0x3) & 0xffffffffffff
			v145 := (v142 * v144) & 0xffffffffffff
			v146 := (v141 + v145) & 0xffffffffffff
			v149 := (v135 << 2) & 0xffffffffffff
			v151 := (v149 + 0x5) & 0xffffffffffff
			v152 := (v149 * v151) & 0xffffffffffff
			v153 := (v148 + v152) & 0xffffffffffff
			v157 := (v135 << 3) & 0xffffffffffff
			v159 := (v157 + 0x7) & 0xffffffffffff
			v160 := (v157 * v159) & 0xffffffffffff
			v161 := (v155 + v160) & 0xffffffffffff
			v165 := (v135 << 4) & 0xffffffffffff
			v167 := (v165 + 0x9) & 0xffffffffffff
			v168 := (v165 * v167) & 0xffffffffffff
			v169 := (v163 + v168) & 0xffffffffffff
			v173 := (v135 << 5) & 0xffffffffffff
			v175 := (v173 + 0xb) & 0xffffffffffff
			v176 := (v173 * v175) & 0xffffffffffff
			v177 := (v171 + v176) & 0xffffffffffff
			v181 := (v135 << 6) & 0xffffffffffff
			v183 := (v181 + 0xd) & 0xffffffffffff
			v184 := (v181 * v183) & 0xffffffffffff
			v185 := (v179 + v184) & 0xffffffffffff
			v189 := (v135 << 7) & 0xffffffffffff
			v191 := (v189 + 0xf) & 0xffffffffffff
			v192 := (v189 * v191) & 0xffffffffffff
			v193 := (v187 + v192) & 0xffffffffffff
			v196 := (v135 << 8) & 0xffffffffffff
			v198 := (v196 + 0x11) & 0xffffffffffff
			v199 := (v196 * v198) & 0xffffffffffff
			v200 := (v195 + v199) & 0xffffffffffff
			v203 := (v135 << 9) & 0xffffffffffff
			v205 := (v203 + 0x13) & 0xffffffffffff
			v206 := (v203 * v205) & 0xffffffffffff
			v207 := (v202 + v206) & 0xffffffffffff
			v211 := (v135 << 10) & 0xffffffffffff
			v213 := (v211 + 0x15) & 0xffffffffffff
			v214 := (v211 * v213) & 0xffffffffffff
			v215 := (v209 + v214) & 0xffffffffffff
			v219 := (v135 << 11) & 0xffffffffffff
			v221 := (v219 + 0x17) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v223 := (v217 + v222) & 0xffffffffffff
			v226 := (v133 * v133) & 0xffffffff
			v227 := (v65 * v65) & 0xffffffff
			v228 := (v226 + v227) & 0xffffffff
			v229 := (v228 >> 2)
			v230 := (v228 >> 1)
			v231 := (v229 + v230) & 0xffffffff
			v232 := (v231 + v228) & 0xffffffff
			v233 := (v127 ^ v141)
			v234 := (v233 ^ v148)
			v235 := (v234 ^ v155)
			v236 := (v235 ^ v163)
			v237 := (v236 ^ v171)
			v238 := (v237 ^ v179)
			v239 := (v238 ^ v187)
			v240 := (v239 ^ v195)
			v241 := (v240 ^ v202)
			v242 := (v241 ^ v209)
			v243 := (v242 ^ v217)
			v245 := v243 & 0xffffffff
			v246 := (v232 ^ v245)
			v247 := (v225 + v246) & 0xffffffff
			v296 := (v293 + 0x1) & 0xffffff
			v6 := v0
			var v47 uint64
			if v46 != 0 {
				v47 = 0x8
			} else {
				v47 = 0x7
			}
			v54 := v47
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v82 := v81
			v98 := v97
			v112 := v111
			v126 := v125
			v140 := v139
			v147 := v146
			v154 := v153
			v162 := v161
			v170 := v169
			v178 := v177
			v186 := v185
			v194 := v193
			v201 := v200
			v208 := v207
			v216 := v215
			v224 := v223
			v248 := v247
			v254 := v249
			v259 := v255
			v264 := v260
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			v288 := v284
			v292 := v289
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			v302 := v298
			v306 := v303
			v309 := v307
			v312 := v310
			v315 := v313
			v318 := v316
			v321 := v319
			v324 := v322
			v327 := v325
			v330 := v328
			v333 := v331
			v336 := v334
			v339 := v337
			v342 := v340
			v349 := v343
			v353 := v350
			v354 := v353
			v357 := v355
			n0 := v6
			n1 := v61
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = n1
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		case 0x8:
			v5 := (v0 + 0x1) & 0x1fff
			var v49 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v49 = m0[addr] & 0x1fff
			}
			var v50 uint64
			if v49 <= v0 {
				v50 = 1
			}
			var v52 uint64
			if v50 != 0 {
				v52 = 0x9
			} else {
				v52 = 0x1
			}
			var v68 uint64
			if v13 != 0x0 {
				v68 = 1
			}
			v70 := (v13 - 0x1) & 0xff
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v13
			}
			v301 := (v298 + 0x1) & 0xffffff
			v305 := (v303 + 0x1) & 0xffffff
			v6 := v5
			v53 := v52
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v59 := v58
			v60 := v59
			v61 := v60
			v72 := v71
			v82 := v81
			v98 := v97
			v112 := v111
			v126 := v125
			v140 := v127
			v147 := v141
			v154 := v148
			v162 := v155
			v170 := v163
			v178 := v171
			v186 := v179
			v194 := v187
			v201 := v195
			v208 := v202
			v216 := v209
			v224 := v217
			v248 := v225
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v254 := v249
			v259 := v255
			v264 := v260
			v269 := v265
			v274 := v270
			v279 := v275
			v283 := v280
			v288 := v284
			v292 := v289
			v297 := v293
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			v309 := v307
			v312 := v310
			v315 := v313
			v318 := v316
			v321 := v319
			v324 := v322
			v327 := v325
			v330 := v328
			v333 := v331
			v336 := v334
			v339 := v337
			v342 := v340
			v349 := v343
			v353 := v350
			v354 := v353
			v357 := v355
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v225
			}
			n0 := v6
			n1 := v61
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = n1
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		case 0x9:
			break loop
		default:
			v5 := (v0 + 0x1) & 0x1fff
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v19 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v19 = m0[addr] & 0xfffffff
			}
			v21 := v19 & 0x3
			var v23 uint64
			if v21 == 0x0 {
				v23 = 1
			}
			var v26 uint64
			if v21 == 0x1 {
				v26 = 1
			}
			var v29 uint64
			if v26 != 0 {
				v29 = 0x4
			} else {
				v29 = 0x5
			}
			var v30 uint64
			if v23 != 0 {
				v30 = 0x7
			} else {
				v30 = v29
			}
			var v33 uint64
			if v32 == 0x0 {
				v33 = 1
			}
			var v37 uint64
			if v36 == 0x0 {
				v37 = 1
			}
			var v42 uint64
			if v41 == 0x0 {
				v42 = 1
			}
			var v46 uint64
			if v45 == 0x0 {
				v46 = 1
			}
			var v49 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v49 = m0[addr] & 0x1fff
			}
			var v50 uint64
			if v49 <= v0 {
				v50 = 1
			}
			var v52 uint64
			if v50 != 0 {
				v52 = 0x9
			} else {
				v52 = 0x1
			}
			v63 := (v19 >> 2)
			v65 := v63 & 0x3f
			v67 := (v65 >> 1)
			var v68 uint64
			if v13 != 0x0 {
				v68 = 1
			}
			v70 := (v13 - 0x1) & 0xff
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v13
			}
			v75 := v65
			v76 := (v65 >> 2)
			v77 := (v75 - v76) & 0xff
			v78 := (0xa + v77) & 0xff
			var v84 uint64
			if v21 == 0x2 {
				v84 = 1
			}
			v88 := (v19 >> 9)
			v90 := v88 & 0x7
			v91 := v90
			v92 := (v91 << 1) & 0xff
			v93 := (v91 + v92) & 0xff
			v94 := (0x3 + v93) & 0xff
			v101 := (0x2 + v93) & 0xff
			v103 := (v19 >> 8)
			v105 := v103 & 0x1
			var v107 uint64
			if v105 != 0 {
				v107 = 0x14
			} else {
				v107 = 0x0
			}
			v108 := (v101 + v107) & 0xff
			var v119 uint64
			if v65 != 0x0 {
				v119 = 1
			}
			var v122 uint64
			if v119 != 0 {
				v122 = 0xc
			} else {
				v122 = 0x8
			}
			v131 := (v19 >> 12)
			v133 := v131 & 0xffff
			v135 := v133
			v137 := (v135 + 0x1) & 0xffffffffffff
			v138 := (v135 * v137) & 0xffffffffffff
			v139 := (v127 + v138) & 0xffffffffffff
			v142 := (v135 << 1) & 0xffffffffffff
			v144 := (v142 + 0x3) & 0xffffffffffff
			v145 := (v142 * v144) & 0xffffffffffff
			v146 := (v141 + v145) & 0xffffffffffff
			v149 := (v135 << 2) & 0xffffffffffff
			v151 := (v149 + 0x5) & 0xffffffffffff
			v152 := (v149 * v151) & 0xffffffffffff
			v153 := (v148 + v152) & 0xffffffffffff
			v157 := (v135 << 3) & 0xffffffffffff
			v159 := (v157 + 0x7) & 0xffffffffffff
			v160 := (v157 * v159) & 0xffffffffffff
			v161 := (v155 + v160) & 0xffffffffffff
			v165 := (v135 << 4) & 0xffffffffffff
			v167 := (v165 + 0x9) & 0xffffffffffff
			v168 := (v165 * v167) & 0xffffffffffff
			v169 := (v163 + v168) & 0xffffffffffff
			v173 := (v135 << 5) & 0xffffffffffff
			v175 := (v173 + 0xb) & 0xffffffffffff
			v176 := (v173 * v175) & 0xffffffffffff
			v177 := (v171 + v176) & 0xffffffffffff
			v181 := (v135 << 6) & 0xffffffffffff
			v183 := (v181 + 0xd) & 0xffffffffffff
			v184 := (v181 * v183) & 0xffffffffffff
			v185 := (v179 + v184) & 0xffffffffffff
			v189 := (v135 << 7) & 0xffffffffffff
			v191 := (v189 + 0xf) & 0xffffffffffff
			v192 := (v189 * v191) & 0xffffffffffff
			v193 := (v187 + v192) & 0xffffffffffff
			v196 := (v135 << 8) & 0xffffffffffff
			v198 := (v196 + 0x11) & 0xffffffffffff
			v199 := (v196 * v198) & 0xffffffffffff
			v200 := (v195 + v199) & 0xffffffffffff
			v203 := (v135 << 9) & 0xffffffffffff
			v205 := (v203 + 0x13) & 0xffffffffffff
			v206 := (v203 * v205) & 0xffffffffffff
			v207 := (v202 + v206) & 0xffffffffffff
			v211 := (v135 << 10) & 0xffffffffffff
			v213 := (v211 + 0x15) & 0xffffffffffff
			v214 := (v211 * v213) & 0xffffffffffff
			v215 := (v209 + v214) & 0xffffffffffff
			v219 := (v135 << 11) & 0xffffffffffff
			v221 := (v219 + 0x17) & 0xffffffffffff
			v222 := (v219 * v221) & 0xffffffffffff
			v223 := (v217 + v222) & 0xffffffffffff
			v226 := (v133 * v133) & 0xffffffff
			v227 := (v65 * v65) & 0xffffffff
			v228 := (v226 + v227) & 0xffffffff
			v229 := (v228 >> 2)
			v230 := (v228 >> 1)
			v231 := (v229 + v230) & 0xffffffff
			v232 := (v231 + v228) & 0xffffffff
			v233 := (v127 ^ v141)
			v234 := (v233 ^ v148)
			v235 := (v234 ^ v155)
			v236 := (v235 ^ v163)
			v237 := (v236 ^ v171)
			v238 := (v237 ^ v179)
			v239 := (v238 ^ v187)
			v240 := (v239 ^ v195)
			v241 := (v240 ^ v202)
			v242 := (v241 ^ v209)
			v243 := (v242 ^ v217)
			v245 := v243 & 0xffffffff
			v246 := (v232 ^ v245)
			v247 := (v225 + v246) & 0xffffffff
			v253 := (v249 + 0x1) & 0xffffff
			v258 := (v255 + 0x1) & 0xffffff
			v263 := (v260 + 0x1) & 0xffffff
			v268 := (v265 + 0x1) & 0xffffff
			v273 := (v270 + 0x1) & 0xffffff
			v278 := (v275 + 0x1) & 0xffffff
			v282 := (v280 + 0x1) & 0xffffff
			v287 := (v284 + 0x1) & 0xffffff
			v291 := (v289 + 0x1) & 0xffffff
			v296 := (v293 + 0x1) & 0xffffff
			v301 := (v298 + 0x1) & 0xffffff
			v305 := (v303 + 0x1) & 0xffffff
			v308 := (v307 + 0x1) & 0xffffff
			v311 := (v310 + v67) & 0xffffff
			v314 := (v313 + v13) & 0xffffff
			v317 := (v316 + 0x1) & 0xffffff
			v320 := (v319 + v78) & 0xffffff
			v323 := (v322 + v32) & 0xffffff
			v326 := (v325 + 0x1) & 0xffffff
			v329 := (v328 + v94) & 0xffffff
			v332 := (v331 + v36) & 0xffffff
			v335 := (v334 + 0x1) & 0xffffff
			v338 := (v337 + v108) & 0xffffff
			v341 := (v340 + v41) & 0xffffff
			v345 := ^v119 & 0x1
			v348 := (v343 + 0x1) & 0xffffff
			v351 := (v350 + 0x8) & 0xffffff
			v352 := (v350 + 0xc) & 0xffffff
			v356 := (v355 + v45) & 0xffffff
			var v3 uint64
			if v1 == 0x8 {
				v3 = 1
			}
			var v6 uint64
			if v3 != 0 {
				v6 = v5
			} else {
				v6 = v0
			}
			var v8 uint64
			if v1 == 0x0 {
				v8 = 1
			}
			var v10 uint64
			if v1 == 0x1 {
				v10 = 1
			}
			var v12 uint64
			if v1 == 0x2 {
				v12 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x3
			} else {
				v17 = v1
			}
			var v18 uint64
			if v1 == 0x3 {
				v18 = 1
			}
			var v31 uint64
			if v1 == 0x4 {
				v31 = 1
			}
			var v34 uint64
			if v33 != 0 {
				v34 = 0x7
			} else {
				v34 = v1
			}
			var v35 uint64
			if v1 == 0x5 {
				v35 = 1
			}
			var v39 uint64
			if v37 != 0 {
				v39 = 0x6
			} else {
				v39 = v1
			}
			var v40 uint64
			if v1 == 0x6 {
				v40 = 1
			}
			var v43 uint64
			if v42 != 0 {
				v43 = 0x7
			} else {
				v43 = v1
			}
			var v44 uint64
			if v1 == 0x7 {
				v44 = 1
			}
			var v47 uint64
			if v46 != 0 {
				v47 = 0x8
			} else {
				v47 = v1
			}
			var v53 uint64
			if v3 != 0 {
				v53 = v52
			} else {
				v53 = v1
			}
			var v54 uint64
			if v44 != 0 {
				v54 = v47
			} else {
				v54 = v53
			}
			var v55 uint64
			if v40 != 0 {
				v55 = v43
			} else {
				v55 = v54
			}
			var v56 uint64
			if v35 != 0 {
				v56 = v39
			} else {
				v56 = v55
			}
			var v57 uint64
			if v31 != 0 {
				v57 = v34
			} else {
				v57 = v56
			}
			var v58 uint64
			if v18 != 0 {
				v58 = v30
			} else {
				v58 = v57
			}
			var v59 uint64
			if v12 != 0 {
				v59 = v17
			} else {
				v59 = v58
			}
			var v60 uint64
			if v10 != 0 {
				v60 = 0x2
			} else {
				v60 = v59
			}
			var v61 uint64
			if v8 != 0 {
				v61 = 0x1
			} else {
				v61 = v60
			}
			var v72 uint64
			if v10 != 0 {
				v72 = v67
			} else {
				v72 = v71
			}
			v73 := v18 & v26
			var v82 uint64
			if v73 != 0 {
				v82 = v78
			} else {
				v82 = v81
			}
			v85 := v18 & v84
			var v98 uint64
			if v85 != 0 {
				v98 = v94
			} else {
				v98 = v97
			}
			v99 := v35 & v37
			var v112 uint64
			if v99 != 0 {
				v112 = v108
			} else {
				v112 = v111
			}
			v113 := v31 & v33
			v114 := v40 & v42
			v115 := (v113 | v114)
			v116 := v18 & v23
			v117 := (v115 | v116)
			var v126 uint64
			if v117 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v128 := (v31 | v40)
			v129 := (v128 | v44)
			var v140 uint64
			if v129 != 0 {
				v140 = v139
			} else {
				v140 = v127
			}
			var v147 uint64
			if v129 != 0 {
				v147 = v146
			} else {
				v147 = v141
			}
			var v154 uint64
			if v129 != 0 {
				v154 = v153
			} else {
				v154 = v148
			}
			var v162 uint64
			if v129 != 0 {
				v162 = v161
			} else {
				v162 = v155
			}
			var v170 uint64
			if v129 != 0 {
				v170 = v169
			} else {
				v170 = v163
			}
			var v178 uint64
			if v129 != 0 {
				v178 = v177
			} else {
				v178 = v171
			}
			var v186 uint64
			if v129 != 0 {
				v186 = v185
			} else {
				v186 = v179
			}
			var v194 uint64
			if v129 != 0 {
				v194 = v193
			} else {
				v194 = v187
			}
			var v201 uint64
			if v129 != 0 {
				v201 = v200
			} else {
				v201 = v195
			}
			var v208 uint64
			if v129 != 0 {
				v208 = v207
			} else {
				v208 = v202
			}
			var v216 uint64
			if v129 != 0 {
				v216 = v215
			} else {
				v216 = v209
			}
			var v224 uint64
			if v129 != 0 {
				v224 = v223
			} else {
				v224 = v217
			}
			var v248 uint64
			if v129 != 0 {
				v248 = v247
			} else {
				v248 = v225
			}
			var v250 uint64
			if v61 == 0x1 {
				v250 = 1
			}
			v251 := v8 & v250
			var v254 uint64
			if v251 != 0 {
				v254 = v253
			} else {
				v254 = v249
			}
			var v256 uint64
			if v61 == 0x2 {
				v256 = 1
			}
			v257 := v10 & v256
			var v259 uint64
			if v257 != 0 {
				v259 = v258
			} else {
				v259 = v255
			}
			var v261 uint64
			if v61 == 0x3 {
				v261 = 1
			}
			v262 := v12 & v261
			var v264 uint64
			if v262 != 0 {
				v264 = v263
			} else {
				v264 = v260
			}
			var v266 uint64
			if v61 == 0x7 {
				v266 = 1
			}
			v267 := v18 & v266
			var v269 uint64
			if v267 != 0 {
				v269 = v268
			} else {
				v269 = v265
			}
			var v271 uint64
			if v61 == 0x4 {
				v271 = 1
			}
			v272 := v18 & v271
			var v274 uint64
			if v272 != 0 {
				v274 = v273
			} else {
				v274 = v270
			}
			var v276 uint64
			if v61 == 0x5 {
				v276 = 1
			}
			v277 := v18 & v276
			var v279 uint64
			if v277 != 0 {
				v279 = v278
			} else {
				v279 = v275
			}
			v281 := v31 & v266
			var v283 uint64
			if v281 != 0 {
				v283 = v282
			} else {
				v283 = v280
			}
			var v285 uint64
			if v61 == 0x6 {
				v285 = 1
			}
			v286 := v35 & v285
			var v288 uint64
			if v286 != 0 {
				v288 = v287
			} else {
				v288 = v284
			}
			v290 := v40 & v266
			var v292 uint64
			if v290 != 0 {
				v292 = v291
			} else {
				v292 = v289
			}
			var v294 uint64
			if v61 == 0x8 {
				v294 = 1
			}
			v295 := v44 & v294
			var v297 uint64
			if v295 != 0 {
				v297 = v296
			} else {
				v297 = v293
			}
			var v299 uint64
			if v61 == 0x9 {
				v299 = 1
			}
			v300 := v3 & v299
			var v302 uint64
			if v300 != 0 {
				v302 = v301
			} else {
				v302 = v298
			}
			v304 := v3 & v250
			var v306 uint64
			if v304 != 0 {
				v306 = v305
			} else {
				v306 = v303
			}
			var v309 uint64
			if v10 != 0 {
				v309 = v308
			} else {
				v309 = v307
			}
			var v312 uint64
			if v10 != 0 {
				v312 = v311
			} else {
				v312 = v310
			}
			var v315 uint64
			if v10 != 0 {
				v315 = v314
			} else {
				v315 = v313
			}
			var v318 uint64
			if v73 != 0 {
				v318 = v317
			} else {
				v318 = v316
			}
			var v321 uint64
			if v73 != 0 {
				v321 = v320
			} else {
				v321 = v319
			}
			var v324 uint64
			if v73 != 0 {
				v324 = v323
			} else {
				v324 = v322
			}
			var v327 uint64
			if v85 != 0 {
				v327 = v326
			} else {
				v327 = v325
			}
			var v330 uint64
			if v85 != 0 {
				v330 = v329
			} else {
				v330 = v328
			}
			var v333 uint64
			if v85 != 0 {
				v333 = v332
			} else {
				v333 = v331
			}
			var v336 uint64
			if v99 != 0 {
				v336 = v335
			} else {
				v336 = v334
			}
			var v339 uint64
			if v99 != 0 {
				v339 = v338
			} else {
				v339 = v337
			}
			var v342 uint64
			if v99 != 0 {
				v342 = v341
			} else {
				v342 = v340
			}
			v344 := v117 & v119
			v346 := v117 & v345
			v347 := (v344 | v346)
			var v349 uint64
			if v347 != 0 {
				v349 = v348
			} else {
				v349 = v343
			}
			var v353 uint64
			if v344 != 0 {
				v353 = v352
			} else {
				v353 = v350
			}
			var v354 uint64
			if v346 != 0 {
				v354 = v351
			} else {
				v354 = v353
			}
			var v357 uint64
			if v347 != 0 {
				v357 = v356
			} else {
				v357 = v355
			}
			var v358 uint64
			if v1 == 0x9 {
				v358 = 1
			}
			if v358 != 0 {
				break loop
			}
			if v3 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v225
				}
			}
			n0 := v6
			n1 := v61
			n2 := v72
			n3 := v82
			n4 := v98
			n5 := v112
			n6 := v126
			n7 := v140
			n8 := v147
			n9 := v154
			n10 := v162
			n11 := v170
			n12 := v178
			n13 := v186
			n14 := v194
			n15 := v201
			n16 := v208
			n17 := v216
			n18 := v224
			n19 := v248
			n20 := v254
			n21 := v259
			n22 := v264
			n23 := v269
			n24 := v274
			n25 := v279
			n26 := v283
			n27 := v288
			n28 := v292
			n29 := v297
			n30 := v302
			n31 := v306
			n32 := v309
			n33 := v312
			n34 := v315
			n35 := v318
			n36 := v321
			n37 := v324
			n38 := v327
			n39 := v330
			n40 := v333
			n41 := v336
			n42 := v339
			n43 := v342
			n44 := v349
			n45 := v354
			n46 := v357
			v0 = n0
			v1 = n1
			v13 = n2
			v32 = n3
			v36 = n4
			v41 = n5
			v45 = n6
			v127 = n7
			v141 = n8
			v148 = n9
			v155 = n10
			v163 = n11
			v171 = n12
			v179 = n13
			v187 = n14
			v195 = n15
			v202 = n16
			v209 = n17
			v217 = n18
			v225 = n19
			v249 = n20
			v255 = n21
			v260 = n22
			v265 = n23
			v270 = n24
			v275 = n25
			v280 = n26
			v284 = n27
			v289 = n28
			v293 = n29
			v298 = n30
			v303 = n31
			v307 = n32
			v310 = n33
			v313 = n34
			v316 = n35
			v319 = n36
			v322 = n37
			v325 = n38
			v328 = n39
			v331 = n40
			v334 = n41
			v337 = n42
			v340 = n43
			v343 = n44
			v350 = n45
			v355 = n46
		}
	}
	vals[0] = v0
	vals[1] = v1
	vals[13] = v13
	vals[32] = v32
	vals[36] = v36
	vals[41] = v41
	vals[45] = v45
	vals[127] = v127
	vals[141] = v141
	vals[148] = v148
	vals[155] = v155
	vals[163] = v163
	vals[171] = v171
	vals[179] = v179
	vals[187] = v187
	vals[195] = v195
	vals[202] = v202
	vals[209] = v209
	vals[217] = v217
	vals[225] = v225
	vals[249] = v249
	vals[255] = v255
	vals[260] = v260
	vals[265] = v265
	vals[270] = v270
	vals[275] = v275
	vals[280] = v280
	vals[284] = v284
	vals[289] = v289
	vals[293] = v293
	vals[298] = v298
	vals[303] = v303
	vals[307] = v307
	vals[310] = v310
	vals[313] = v313
	vals[316] = v316
	vals[319] = v319
	vals[322] = v322
	vals[325] = v325
	vals[328] = v328
	vals[331] = v331
	vals[334] = v334
	vals[337] = v337
	vals[340] = v340
	vals[343] = v343
	vals[350] = v350
	vals[355] = v355
	v5 := (v0 + 0x1) & 0x1fff
	vals[5] = v5
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v19 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v19 = m0[addr] & 0xfffffff
	}
	vals[19] = v19
	v21 := v19 & 0x3
	vals[21] = v21
	var v23 uint64
	if v21 == 0x0 {
		v23 = 1
	}
	vals[23] = v23
	var v26 uint64
	if v21 == 0x1 {
		v26 = 1
	}
	vals[26] = v26
	var v29 uint64
	if v26 != 0 {
		v29 = 0x4
	} else {
		v29 = 0x5
	}
	vals[29] = v29
	var v30 uint64
	if v23 != 0 {
		v30 = 0x7
	} else {
		v30 = v29
	}
	vals[30] = v30
	var v33 uint64
	if v32 == 0x0 {
		v33 = 1
	}
	vals[33] = v33
	var v37 uint64
	if v36 == 0x0 {
		v37 = 1
	}
	vals[37] = v37
	var v42 uint64
	if v41 == 0x0 {
		v42 = 1
	}
	vals[42] = v42
	var v46 uint64
	if v45 == 0x0 {
		v46 = 1
	}
	vals[46] = v46
	var v49 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v49 = m0[addr] & 0x1fff
	}
	vals[49] = v49
	var v50 uint64
	if v49 <= v0 {
		v50 = 1
	}
	vals[50] = v50
	var v52 uint64
	if v50 != 0 {
		v52 = 0x9
	} else {
		v52 = 0x1
	}
	vals[52] = v52
	v63 := (v19 >> 2)
	vals[63] = v63
	v65 := v63 & 0x3f
	vals[65] = v65
	v67 := (v65 >> 1)
	vals[67] = v67
	var v68 uint64
	if v13 != 0x0 {
		v68 = 1
	}
	vals[68] = v68
	v70 := (v13 - 0x1) & 0xff
	vals[70] = v70
	var v71 uint64
	if v68 != 0 {
		v71 = v70
	} else {
		v71 = v13
	}
	vals[71] = v71
	v75 := v65
	vals[75] = v75
	v76 := (v65 >> 2)
	vals[76] = v76
	v77 := (v75 - v76) & 0xff
	vals[77] = v77
	v78 := (0xa + v77) & 0xff
	vals[78] = v78
	var v79 uint64
	if v32 != 0x0 {
		v79 = 1
	}
	vals[79] = v79
	v80 := (v32 - 0x1) & 0xff
	vals[80] = v80
	var v81 uint64
	if v79 != 0 {
		v81 = v80
	} else {
		v81 = v32
	}
	vals[81] = v81
	var v84 uint64
	if v21 == 0x2 {
		v84 = 1
	}
	vals[84] = v84
	v88 := (v19 >> 9)
	vals[88] = v88
	v90 := v88 & 0x7
	vals[90] = v90
	v91 := v90
	vals[91] = v91
	v92 := (v91 << 1) & 0xff
	vals[92] = v92
	v93 := (v91 + v92) & 0xff
	vals[93] = v93
	v94 := (0x3 + v93) & 0xff
	vals[94] = v94
	var v95 uint64
	if v36 != 0x0 {
		v95 = 1
	}
	vals[95] = v95
	v96 := (v36 - 0x1) & 0xff
	vals[96] = v96
	var v97 uint64
	if v95 != 0 {
		v97 = v96
	} else {
		v97 = v36
	}
	vals[97] = v97
	v101 := (0x2 + v93) & 0xff
	vals[101] = v101
	v103 := (v19 >> 8)
	vals[103] = v103
	v105 := v103 & 0x1
	vals[105] = v105
	var v107 uint64
	if v105 != 0 {
		v107 = 0x14
	} else {
		v107 = 0x0
	}
	vals[107] = v107
	v108 := (v101 + v107) & 0xff
	vals[108] = v108
	var v109 uint64
	if v41 != 0x0 {
		v109 = 1
	}
	vals[109] = v109
	v110 := (v41 - 0x1) & 0xff
	vals[110] = v110
	var v111 uint64
	if v109 != 0 {
		v111 = v110
	} else {
		v111 = v41
	}
	vals[111] = v111
	var v119 uint64
	if v65 != 0x0 {
		v119 = 1
	}
	vals[119] = v119
	var v122 uint64
	if v119 != 0 {
		v122 = 0xc
	} else {
		v122 = 0x8
	}
	vals[122] = v122
	var v123 uint64
	if v45 != 0x0 {
		v123 = 1
	}
	vals[123] = v123
	v124 := (v45 - 0x1) & 0xff
	vals[124] = v124
	var v125 uint64
	if v123 != 0 {
		v125 = v124
	} else {
		v125 = v45
	}
	vals[125] = v125
	v131 := (v19 >> 12)
	vals[131] = v131
	v133 := v131 & 0xffff
	vals[133] = v133
	v135 := v133
	vals[135] = v135
	v137 := (v135 + 0x1) & 0xffffffffffff
	vals[137] = v137
	v138 := (v135 * v137) & 0xffffffffffff
	vals[138] = v138
	v139 := (v127 + v138) & 0xffffffffffff
	vals[139] = v139
	v142 := (v135 << 1) & 0xffffffffffff
	vals[142] = v142
	v144 := (v142 + 0x3) & 0xffffffffffff
	vals[144] = v144
	v145 := (v142 * v144) & 0xffffffffffff
	vals[145] = v145
	v146 := (v141 + v145) & 0xffffffffffff
	vals[146] = v146
	v149 := (v135 << 2) & 0xffffffffffff
	vals[149] = v149
	v151 := (v149 + 0x5) & 0xffffffffffff
	vals[151] = v151
	v152 := (v149 * v151) & 0xffffffffffff
	vals[152] = v152
	v153 := (v148 + v152) & 0xffffffffffff
	vals[153] = v153
	v157 := (v135 << 3) & 0xffffffffffff
	vals[157] = v157
	v159 := (v157 + 0x7) & 0xffffffffffff
	vals[159] = v159
	v160 := (v157 * v159) & 0xffffffffffff
	vals[160] = v160
	v161 := (v155 + v160) & 0xffffffffffff
	vals[161] = v161
	v165 := (v135 << 4) & 0xffffffffffff
	vals[165] = v165
	v167 := (v165 + 0x9) & 0xffffffffffff
	vals[167] = v167
	v168 := (v165 * v167) & 0xffffffffffff
	vals[168] = v168
	v169 := (v163 + v168) & 0xffffffffffff
	vals[169] = v169
	v173 := (v135 << 5) & 0xffffffffffff
	vals[173] = v173
	v175 := (v173 + 0xb) & 0xffffffffffff
	vals[175] = v175
	v176 := (v173 * v175) & 0xffffffffffff
	vals[176] = v176
	v177 := (v171 + v176) & 0xffffffffffff
	vals[177] = v177
	v181 := (v135 << 6) & 0xffffffffffff
	vals[181] = v181
	v183 := (v181 + 0xd) & 0xffffffffffff
	vals[183] = v183
	v184 := (v181 * v183) & 0xffffffffffff
	vals[184] = v184
	v185 := (v179 + v184) & 0xffffffffffff
	vals[185] = v185
	v189 := (v135 << 7) & 0xffffffffffff
	vals[189] = v189
	v191 := (v189 + 0xf) & 0xffffffffffff
	vals[191] = v191
	v192 := (v189 * v191) & 0xffffffffffff
	vals[192] = v192
	v193 := (v187 + v192) & 0xffffffffffff
	vals[193] = v193
	v196 := (v135 << 8) & 0xffffffffffff
	vals[196] = v196
	v198 := (v196 + 0x11) & 0xffffffffffff
	vals[198] = v198
	v199 := (v196 * v198) & 0xffffffffffff
	vals[199] = v199
	v200 := (v195 + v199) & 0xffffffffffff
	vals[200] = v200
	v203 := (v135 << 9) & 0xffffffffffff
	vals[203] = v203
	v205 := (v203 + 0x13) & 0xffffffffffff
	vals[205] = v205
	v206 := (v203 * v205) & 0xffffffffffff
	vals[206] = v206
	v207 := (v202 + v206) & 0xffffffffffff
	vals[207] = v207
	v211 := (v135 << 10) & 0xffffffffffff
	vals[211] = v211
	v213 := (v211 + 0x15) & 0xffffffffffff
	vals[213] = v213
	v214 := (v211 * v213) & 0xffffffffffff
	vals[214] = v214
	v215 := (v209 + v214) & 0xffffffffffff
	vals[215] = v215
	v219 := (v135 << 11) & 0xffffffffffff
	vals[219] = v219
	v221 := (v219 + 0x17) & 0xffffffffffff
	vals[221] = v221
	v222 := (v219 * v221) & 0xffffffffffff
	vals[222] = v222
	v223 := (v217 + v222) & 0xffffffffffff
	vals[223] = v223
	v226 := (v133 * v133) & 0xffffffff
	vals[226] = v226
	v227 := (v65 * v65) & 0xffffffff
	vals[227] = v227
	v228 := (v226 + v227) & 0xffffffff
	vals[228] = v228
	v229 := (v228 >> 2)
	vals[229] = v229
	v230 := (v228 >> 1)
	vals[230] = v230
	v231 := (v229 + v230) & 0xffffffff
	vals[231] = v231
	v232 := (v231 + v228) & 0xffffffff
	vals[232] = v232
	v233 := (v127 ^ v141)
	vals[233] = v233
	v234 := (v233 ^ v148)
	vals[234] = v234
	v235 := (v234 ^ v155)
	vals[235] = v235
	v236 := (v235 ^ v163)
	vals[236] = v236
	v237 := (v236 ^ v171)
	vals[237] = v237
	v238 := (v237 ^ v179)
	vals[238] = v238
	v239 := (v238 ^ v187)
	vals[239] = v239
	v240 := (v239 ^ v195)
	vals[240] = v240
	v241 := (v240 ^ v202)
	vals[241] = v241
	v242 := (v241 ^ v209)
	vals[242] = v242
	v243 := (v242 ^ v217)
	vals[243] = v243
	v245 := v243 & 0xffffffff
	vals[245] = v245
	v246 := (v232 ^ v245)
	vals[246] = v246
	v247 := (v225 + v246) & 0xffffffff
	vals[247] = v247
	v253 := (v249 + 0x1) & 0xffffff
	vals[253] = v253
	v258 := (v255 + 0x1) & 0xffffff
	vals[258] = v258
	v263 := (v260 + 0x1) & 0xffffff
	vals[263] = v263
	v268 := (v265 + 0x1) & 0xffffff
	vals[268] = v268
	v273 := (v270 + 0x1) & 0xffffff
	vals[273] = v273
	v278 := (v275 + 0x1) & 0xffffff
	vals[278] = v278
	v282 := (v280 + 0x1) & 0xffffff
	vals[282] = v282
	v287 := (v284 + 0x1) & 0xffffff
	vals[287] = v287
	v291 := (v289 + 0x1) & 0xffffff
	vals[291] = v291
	v296 := (v293 + 0x1) & 0xffffff
	vals[296] = v296
	v301 := (v298 + 0x1) & 0xffffff
	vals[301] = v301
	v305 := (v303 + 0x1) & 0xffffff
	vals[305] = v305
	v308 := (v307 + 0x1) & 0xffffff
	vals[308] = v308
	v311 := (v310 + v67) & 0xffffff
	vals[311] = v311
	v314 := (v313 + v13) & 0xffffff
	vals[314] = v314
	v317 := (v316 + 0x1) & 0xffffff
	vals[317] = v317
	v320 := (v319 + v78) & 0xffffff
	vals[320] = v320
	v323 := (v322 + v32) & 0xffffff
	vals[323] = v323
	v326 := (v325 + 0x1) & 0xffffff
	vals[326] = v326
	v329 := (v328 + v94) & 0xffffff
	vals[329] = v329
	v332 := (v331 + v36) & 0xffffff
	vals[332] = v332
	v335 := (v334 + 0x1) & 0xffffff
	vals[335] = v335
	v338 := (v337 + v108) & 0xffffff
	vals[338] = v338
	v341 := (v340 + v41) & 0xffffff
	vals[341] = v341
	v345 := ^v119 & 0x1
	vals[345] = v345
	v348 := (v343 + 0x1) & 0xffffff
	vals[348] = v348
	v351 := (v350 + 0x8) & 0xffffff
	vals[351] = v351
	v352 := (v350 + 0xc) & 0xffffff
	vals[352] = v352
	v356 := (v355 + v45) & 0xffffff
	vals[356] = v356
	switch v1 {
	case 0x0:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x0
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[31] = 0x0
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x0
		}
		vals[34] = v34
		vals[35] = 0x0
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x0
		}
		vals[39] = v39
		vals[40] = 0x0
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x0
		}
		vals[43] = v43
		vals[44] = 0x0
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x0
		}
		vals[47] = v47
		vals[53] = 0x0
		vals[54] = 0x0
		vals[55] = 0x0
		vals[56] = 0x0
		vals[57] = 0x0
		vals[58] = 0x0
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x1
		v72 := v71
		vals[72] = v72
		vals[73] = 0x0
		v82 := v81
		vals[82] = v82
		vals[85] = 0x0
		v98 := v97
		vals[98] = v98
		vals[99] = 0x0
		v112 := v111
		vals[112] = v112
		vals[113] = 0x0
		vals[114] = 0x0
		vals[115] = 0x0
		vals[116] = 0x0
		vals[117] = 0x0
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[129] = 0x0
		v140 := v127
		vals[140] = v140
		v147 := v141
		vals[147] = v147
		v154 := v148
		vals[154] = v154
		v162 := v155
		vals[162] = v162
		v170 := v163
		vals[170] = v170
		v178 := v171
		vals[178] = v178
		v186 := v179
		vals[186] = v186
		v194 := v187
		vals[194] = v194
		v201 := v195
		vals[201] = v201
		v208 := v202
		vals[208] = v208
		v216 := v209
		vals[216] = v216
		v224 := v217
		vals[224] = v224
		v248 := v225
		vals[248] = v248
		vals[250] = 0x1
		vals[251] = 0x1
		v254 := v253
		vals[254] = v254
		vals[256] = 0x0
		vals[257] = 0x0
		v259 := v255
		vals[259] = v259
		vals[261] = 0x0
		vals[262] = 0x0
		v264 := v260
		vals[264] = v264
		vals[266] = 0x0
		vals[267] = 0x0
		v269 := v265
		vals[269] = v269
		vals[271] = 0x0
		vals[272] = 0x0
		v274 := v270
		vals[274] = v274
		vals[276] = 0x0
		vals[277] = 0x0
		v279 := v275
		vals[279] = v279
		vals[281] = 0x0
		v283 := v280
		vals[283] = v283
		vals[285] = 0x0
		vals[286] = 0x0
		v288 := v284
		vals[288] = v288
		vals[290] = 0x0
		v292 := v289
		vals[292] = v292
		vals[294] = 0x0
		vals[295] = 0x0
		v297 := v293
		vals[297] = v297
		vals[299] = 0x0
		vals[300] = 0x0
		v302 := v298
		vals[302] = v302
		vals[304] = 0x0
		v306 := v303
		vals[306] = v306
		v309 := v307
		vals[309] = v309
		v312 := v310
		vals[312] = v312
		v315 := v313
		vals[315] = v315
		v318 := v316
		vals[318] = v318
		v321 := v319
		vals[321] = v321
		v324 := v322
		vals[324] = v324
		v327 := v325
		vals[327] = v327
		v330 := v328
		vals[330] = v330
		v333 := v331
		vals[333] = v333
		v336 := v334
		vals[336] = v336
		v339 := v337
		vals[339] = v339
		v342 := v340
		vals[342] = v342
		vals[344] = 0x0
		vals[346] = 0x0
		vals[347] = 0x0
		v349 := v343
		vals[349] = v349
		v353 := v350
		vals[353] = v353
		v354 := v353
		vals[354] = v354
		v357 := v355
		vals[357] = v357
		vals[358] = 0x0
	case 0x1:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x1
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[31] = 0x0
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x1
		}
		vals[34] = v34
		vals[35] = 0x0
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x1
		}
		vals[39] = v39
		vals[40] = 0x0
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x1
		}
		vals[43] = v43
		vals[44] = 0x0
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x1
		}
		vals[47] = v47
		vals[53] = 0x1
		vals[54] = 0x1
		vals[55] = 0x1
		vals[56] = 0x1
		vals[57] = 0x1
		vals[58] = 0x1
		vals[59] = 0x1
		vals[60] = 0x2
		vals[61] = 0x2
		v72 := v67
		vals[72] = v72
		vals[73] = 0x0
		v82 := v81
		vals[82] = v82
		vals[85] = 0x0
		v98 := v97
		vals[98] = v98
		vals[99] = 0x0
		v112 := v111
		vals[112] = v112
		vals[113] = 0x0
		vals[114] = 0x0
		vals[115] = 0x0
		vals[116] = 0x0
		vals[117] = 0x0
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[129] = 0x0
		v140 := v127
		vals[140] = v140
		v147 := v141
		vals[147] = v147
		v154 := v148
		vals[154] = v154
		v162 := v155
		vals[162] = v162
		v170 := v163
		vals[170] = v170
		v178 := v171
		vals[178] = v178
		v186 := v179
		vals[186] = v186
		v194 := v187
		vals[194] = v194
		v201 := v195
		vals[201] = v201
		v208 := v202
		vals[208] = v208
		v216 := v209
		vals[216] = v216
		v224 := v217
		vals[224] = v224
		v248 := v225
		vals[248] = v248
		vals[250] = 0x0
		vals[251] = 0x0
		v254 := v249
		vals[254] = v254
		vals[256] = 0x1
		vals[257] = 0x1
		v259 := v258
		vals[259] = v259
		vals[261] = 0x0
		vals[262] = 0x0
		v264 := v260
		vals[264] = v264
		vals[266] = 0x0
		vals[267] = 0x0
		v269 := v265
		vals[269] = v269
		vals[271] = 0x0
		vals[272] = 0x0
		v274 := v270
		vals[274] = v274
		vals[276] = 0x0
		vals[277] = 0x0
		v279 := v275
		vals[279] = v279
		vals[281] = 0x0
		v283 := v280
		vals[283] = v283
		vals[285] = 0x0
		vals[286] = 0x0
		v288 := v284
		vals[288] = v288
		vals[290] = 0x0
		v292 := v289
		vals[292] = v292
		vals[294] = 0x0
		vals[295] = 0x0
		v297 := v293
		vals[297] = v297
		vals[299] = 0x0
		vals[300] = 0x0
		v302 := v298
		vals[302] = v302
		vals[304] = 0x0
		v306 := v303
		vals[306] = v306
		v309 := v308
		vals[309] = v309
		v312 := v311
		vals[312] = v312
		v315 := v314
		vals[315] = v315
		v318 := v316
		vals[318] = v318
		v321 := v319
		vals[321] = v321
		v324 := v322
		vals[324] = v324
		v327 := v325
		vals[327] = v327
		v330 := v328
		vals[330] = v330
		v333 := v331
		vals[333] = v333
		v336 := v334
		vals[336] = v336
		v339 := v337
		vals[339] = v339
		v342 := v340
		vals[342] = v342
		vals[344] = 0x0
		vals[346] = 0x0
		vals[347] = 0x0
		v349 := v343
		vals[349] = v349
		v353 := v350
		vals[353] = v353
		v354 := v353
		vals[354] = v354
		v357 := v355
		vals[357] = v357
		vals[358] = 0x0
	case 0x2:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x2
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[31] = 0x0
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x2
		}
		vals[34] = v34
		vals[35] = 0x0
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x2
		}
		vals[39] = v39
		vals[40] = 0x0
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x2
		}
		vals[43] = v43
		vals[44] = 0x0
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x2
		}
		vals[47] = v47
		vals[53] = 0x2
		vals[54] = 0x2
		vals[55] = 0x2
		vals[56] = 0x2
		vals[57] = 0x2
		vals[58] = 0x2
		v59 := v17
		vals[59] = v59
		v60 := v59
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		v72 := v71
		vals[72] = v72
		vals[73] = 0x0
		v82 := v81
		vals[82] = v82
		vals[85] = 0x0
		v98 := v97
		vals[98] = v98
		vals[99] = 0x0
		v112 := v111
		vals[112] = v112
		vals[113] = 0x0
		vals[114] = 0x0
		vals[115] = 0x0
		vals[116] = 0x0
		vals[117] = 0x0
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[129] = 0x0
		v140 := v127
		vals[140] = v140
		v147 := v141
		vals[147] = v147
		v154 := v148
		vals[154] = v154
		v162 := v155
		vals[162] = v162
		v170 := v163
		vals[170] = v170
		v178 := v171
		vals[178] = v178
		v186 := v179
		vals[186] = v186
		v194 := v187
		vals[194] = v194
		v201 := v195
		vals[201] = v201
		v208 := v202
		vals[208] = v208
		v216 := v209
		vals[216] = v216
		v224 := v217
		vals[224] = v224
		v248 := v225
		vals[248] = v248
		var v250 uint64
		if v61 == 0x1 {
			v250 = 1
		}
		vals[250] = v250
		vals[251] = 0x0
		v254 := v249
		vals[254] = v254
		var v256 uint64
		if v61 == 0x2 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v259 := v255
		vals[259] = v259
		var v261 uint64
		if v61 == 0x3 {
			v261 = 1
		}
		vals[261] = v261
		v262 := v261
		vals[262] = v262
		var v264 uint64
		if v262 != 0 {
			v264 = v263
		} else {
			v264 = v260
		}
		vals[264] = v264
		var v266 uint64
		if v61 == 0x7 {
			v266 = 1
		}
		vals[266] = v266
		vals[267] = 0x0
		v269 := v265
		vals[269] = v269
		var v271 uint64
		if v61 == 0x4 {
			v271 = 1
		}
		vals[271] = v271
		vals[272] = 0x0
		v274 := v270
		vals[274] = v274
		var v276 uint64
		if v61 == 0x5 {
			v276 = 1
		}
		vals[276] = v276
		vals[277] = 0x0
		v279 := v275
		vals[279] = v279
		vals[281] = 0x0
		v283 := v280
		vals[283] = v283
		var v285 uint64
		if v61 == 0x6 {
			v285 = 1
		}
		vals[285] = v285
		vals[286] = 0x0
		v288 := v284
		vals[288] = v288
		vals[290] = 0x0
		v292 := v289
		vals[292] = v292
		var v294 uint64
		if v61 == 0x8 {
			v294 = 1
		}
		vals[294] = v294
		vals[295] = 0x0
		v297 := v293
		vals[297] = v297
		var v299 uint64
		if v61 == 0x9 {
			v299 = 1
		}
		vals[299] = v299
		vals[300] = 0x0
		v302 := v298
		vals[302] = v302
		vals[304] = 0x0
		v306 := v303
		vals[306] = v306
		v309 := v307
		vals[309] = v309
		v312 := v310
		vals[312] = v312
		v315 := v313
		vals[315] = v315
		v318 := v316
		vals[318] = v318
		v321 := v319
		vals[321] = v321
		v324 := v322
		vals[324] = v324
		v327 := v325
		vals[327] = v327
		v330 := v328
		vals[330] = v330
		v333 := v331
		vals[333] = v333
		v336 := v334
		vals[336] = v336
		v339 := v337
		vals[339] = v339
		v342 := v340
		vals[342] = v342
		vals[344] = 0x0
		vals[346] = 0x0
		vals[347] = 0x0
		v349 := v343
		vals[349] = v349
		v353 := v350
		vals[353] = v353
		v354 := v353
		vals[354] = v354
		v357 := v355
		vals[357] = v357
		vals[358] = 0x0
	case 0x3:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x3
		}
		vals[17] = v17
		vals[18] = 0x1
		vals[31] = 0x0
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x3
		}
		vals[34] = v34
		vals[35] = 0x0
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x3
		}
		vals[39] = v39
		vals[40] = 0x0
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x3
		}
		vals[43] = v43
		vals[44] = 0x0
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x3
		}
		vals[47] = v47
		vals[53] = 0x3
		vals[54] = 0x3
		vals[55] = 0x3
		vals[56] = 0x3
		vals[57] = 0x3
		v58 := v30
		vals[58] = v58
		v59 := v58
		vals[59] = v59
		v60 := v59
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		v72 := v71
		vals[72] = v72
		v73 := v26
		vals[73] = v73
		var v82 uint64
		if v73 != 0 {
			v82 = v78
		} else {
			v82 = v81
		}
		vals[82] = v82
		v85 := v84
		vals[85] = v85
		var v98 uint64
		if v85 != 0 {
			v98 = v94
		} else {
			v98 = v97
		}
		vals[98] = v98
		vals[99] = 0x0
		v112 := v111
		vals[112] = v112
		vals[113] = 0x0
		vals[114] = 0x0
		vals[115] = 0x0
		v116 := v23
		vals[116] = v116
		v117 := v116
		vals[117] = v117
		var v126 uint64
		if v117 != 0 {
			v126 = v122
		} else {
			v126 = v125
		}
		vals[126] = v126
		vals[128] = 0x0
		vals[129] = 0x0
		v140 := v127
		vals[140] = v140
		v147 := v141
		vals[147] = v147
		v154 := v148
		vals[154] = v154
		v162 := v155
		vals[162] = v162
		v170 := v163
		vals[170] = v170
		v178 := v171
		vals[178] = v178
		v186 := v179
		vals[186] = v186
		v194 := v187
		vals[194] = v194
		v201 := v195
		vals[201] = v201
		v208 := v202
		vals[208] = v208
		v216 := v209
		vals[216] = v216
		v224 := v217
		vals[224] = v224
		v248 := v225
		vals[248] = v248
		var v250 uint64
		if v61 == 0x1 {
			v250 = 1
		}
		vals[250] = v250
		vals[251] = 0x0
		v254 := v249
		vals[254] = v254
		var v256 uint64
		if v61 == 0x2 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v259 := v255
		vals[259] = v259
		var v261 uint64
		if v61 == 0x3 {
			v261 = 1
		}
		vals[261] = v261
		vals[262] = 0x0
		v264 := v260
		vals[264] = v264
		var v266 uint64
		if v61 == 0x7 {
			v266 = 1
		}
		vals[266] = v266
		v267 := v266
		vals[267] = v267
		var v269 uint64
		if v267 != 0 {
			v269 = v268
		} else {
			v269 = v265
		}
		vals[269] = v269
		var v271 uint64
		if v61 == 0x4 {
			v271 = 1
		}
		vals[271] = v271
		v272 := v271
		vals[272] = v272
		var v274 uint64
		if v272 != 0 {
			v274 = v273
		} else {
			v274 = v270
		}
		vals[274] = v274
		var v276 uint64
		if v61 == 0x5 {
			v276 = 1
		}
		vals[276] = v276
		v277 := v276
		vals[277] = v277
		var v279 uint64
		if v277 != 0 {
			v279 = v278
		} else {
			v279 = v275
		}
		vals[279] = v279
		vals[281] = 0x0
		v283 := v280
		vals[283] = v283
		var v285 uint64
		if v61 == 0x6 {
			v285 = 1
		}
		vals[285] = v285
		vals[286] = 0x0
		v288 := v284
		vals[288] = v288
		vals[290] = 0x0
		v292 := v289
		vals[292] = v292
		var v294 uint64
		if v61 == 0x8 {
			v294 = 1
		}
		vals[294] = v294
		vals[295] = 0x0
		v297 := v293
		vals[297] = v297
		var v299 uint64
		if v61 == 0x9 {
			v299 = 1
		}
		vals[299] = v299
		vals[300] = 0x0
		v302 := v298
		vals[302] = v302
		vals[304] = 0x0
		v306 := v303
		vals[306] = v306
		v309 := v307
		vals[309] = v309
		v312 := v310
		vals[312] = v312
		v315 := v313
		vals[315] = v315
		var v318 uint64
		if v73 != 0 {
			v318 = v317
		} else {
			v318 = v316
		}
		vals[318] = v318
		var v321 uint64
		if v73 != 0 {
			v321 = v320
		} else {
			v321 = v319
		}
		vals[321] = v321
		var v324 uint64
		if v73 != 0 {
			v324 = v323
		} else {
			v324 = v322
		}
		vals[324] = v324
		var v327 uint64
		if v85 != 0 {
			v327 = v326
		} else {
			v327 = v325
		}
		vals[327] = v327
		var v330 uint64
		if v85 != 0 {
			v330 = v329
		} else {
			v330 = v328
		}
		vals[330] = v330
		var v333 uint64
		if v85 != 0 {
			v333 = v332
		} else {
			v333 = v331
		}
		vals[333] = v333
		v336 := v334
		vals[336] = v336
		v339 := v337
		vals[339] = v339
		v342 := v340
		vals[342] = v342
		v344 := v117 & v119
		vals[344] = v344
		v346 := v117 & v345
		vals[346] = v346
		v347 := (v344 | v346)
		vals[347] = v347
		var v349 uint64
		if v347 != 0 {
			v349 = v348
		} else {
			v349 = v343
		}
		vals[349] = v349
		var v353 uint64
		if v344 != 0 {
			v353 = v352
		} else {
			v353 = v350
		}
		vals[353] = v353
		var v354 uint64
		if v346 != 0 {
			v354 = v351
		} else {
			v354 = v353
		}
		vals[354] = v354
		var v357 uint64
		if v347 != 0 {
			v357 = v356
		} else {
			v357 = v355
		}
		vals[357] = v357
		vals[358] = 0x0
	case 0x4:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x4
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[31] = 0x1
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x4
		}
		vals[34] = v34
		vals[35] = 0x0
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x4
		}
		vals[39] = v39
		vals[40] = 0x0
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x4
		}
		vals[43] = v43
		vals[44] = 0x0
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x4
		}
		vals[47] = v47
		vals[53] = 0x4
		vals[54] = 0x4
		vals[55] = 0x4
		vals[56] = 0x4
		v57 := v34
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		v59 := v58
		vals[59] = v59
		v60 := v59
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		v72 := v71
		vals[72] = v72
		vals[73] = 0x0
		v82 := v81
		vals[82] = v82
		vals[85] = 0x0
		v98 := v97
		vals[98] = v98
		vals[99] = 0x0
		v112 := v111
		vals[112] = v112
		v113 := v33
		vals[113] = v113
		vals[114] = 0x0
		v115 := v113
		vals[115] = v115
		vals[116] = 0x0
		v117 := v115
		vals[117] = v117
		var v126 uint64
		if v117 != 0 {
			v126 = v122
		} else {
			v126 = v125
		}
		vals[126] = v126
		vals[128] = 0x1
		vals[129] = 0x1
		v140 := v139
		vals[140] = v140
		v147 := v146
		vals[147] = v147
		v154 := v153
		vals[154] = v154
		v162 := v161
		vals[162] = v162
		v170 := v169
		vals[170] = v170
		v178 := v177
		vals[178] = v178
		v186 := v185
		vals[186] = v186
		v194 := v193
		vals[194] = v194
		v201 := v200
		vals[201] = v201
		v208 := v207
		vals[208] = v208
		v216 := v215
		vals[216] = v216
		v224 := v223
		vals[224] = v224
		v248 := v247
		vals[248] = v248
		var v250 uint64
		if v61 == 0x1 {
			v250 = 1
		}
		vals[250] = v250
		vals[251] = 0x0
		v254 := v249
		vals[254] = v254
		var v256 uint64
		if v61 == 0x2 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v259 := v255
		vals[259] = v259
		var v261 uint64
		if v61 == 0x3 {
			v261 = 1
		}
		vals[261] = v261
		vals[262] = 0x0
		v264 := v260
		vals[264] = v264
		var v266 uint64
		if v61 == 0x7 {
			v266 = 1
		}
		vals[266] = v266
		vals[267] = 0x0
		v269 := v265
		vals[269] = v269
		var v271 uint64
		if v61 == 0x4 {
			v271 = 1
		}
		vals[271] = v271
		vals[272] = 0x0
		v274 := v270
		vals[274] = v274
		var v276 uint64
		if v61 == 0x5 {
			v276 = 1
		}
		vals[276] = v276
		vals[277] = 0x0
		v279 := v275
		vals[279] = v279
		v281 := v266
		vals[281] = v281
		var v283 uint64
		if v281 != 0 {
			v283 = v282
		} else {
			v283 = v280
		}
		vals[283] = v283
		var v285 uint64
		if v61 == 0x6 {
			v285 = 1
		}
		vals[285] = v285
		vals[286] = 0x0
		v288 := v284
		vals[288] = v288
		vals[290] = 0x0
		v292 := v289
		vals[292] = v292
		var v294 uint64
		if v61 == 0x8 {
			v294 = 1
		}
		vals[294] = v294
		vals[295] = 0x0
		v297 := v293
		vals[297] = v297
		var v299 uint64
		if v61 == 0x9 {
			v299 = 1
		}
		vals[299] = v299
		vals[300] = 0x0
		v302 := v298
		vals[302] = v302
		vals[304] = 0x0
		v306 := v303
		vals[306] = v306
		v309 := v307
		vals[309] = v309
		v312 := v310
		vals[312] = v312
		v315 := v313
		vals[315] = v315
		v318 := v316
		vals[318] = v318
		v321 := v319
		vals[321] = v321
		v324 := v322
		vals[324] = v324
		v327 := v325
		vals[327] = v327
		v330 := v328
		vals[330] = v330
		v333 := v331
		vals[333] = v333
		v336 := v334
		vals[336] = v336
		v339 := v337
		vals[339] = v339
		v342 := v340
		vals[342] = v342
		v344 := v117 & v119
		vals[344] = v344
		v346 := v117 & v345
		vals[346] = v346
		v347 := (v344 | v346)
		vals[347] = v347
		var v349 uint64
		if v347 != 0 {
			v349 = v348
		} else {
			v349 = v343
		}
		vals[349] = v349
		var v353 uint64
		if v344 != 0 {
			v353 = v352
		} else {
			v353 = v350
		}
		vals[353] = v353
		var v354 uint64
		if v346 != 0 {
			v354 = v351
		} else {
			v354 = v353
		}
		vals[354] = v354
		var v357 uint64
		if v347 != 0 {
			v357 = v356
		} else {
			v357 = v355
		}
		vals[357] = v357
		vals[358] = 0x0
	case 0x5:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x5
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[31] = 0x0
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x5
		}
		vals[34] = v34
		vals[35] = 0x1
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x5
		}
		vals[39] = v39
		vals[40] = 0x0
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x5
		}
		vals[43] = v43
		vals[44] = 0x0
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x5
		}
		vals[47] = v47
		vals[53] = 0x5
		vals[54] = 0x5
		vals[55] = 0x5
		v56 := v39
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		v59 := v58
		vals[59] = v59
		v60 := v59
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		v72 := v71
		vals[72] = v72
		vals[73] = 0x0
		v82 := v81
		vals[82] = v82
		vals[85] = 0x0
		v98 := v97
		vals[98] = v98
		v99 := v37
		vals[99] = v99
		var v112 uint64
		if v99 != 0 {
			v112 = v108
		} else {
			v112 = v111
		}
		vals[112] = v112
		vals[113] = 0x0
		vals[114] = 0x0
		vals[115] = 0x0
		vals[116] = 0x0
		vals[117] = 0x0
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[129] = 0x0
		v140 := v127
		vals[140] = v140
		v147 := v141
		vals[147] = v147
		v154 := v148
		vals[154] = v154
		v162 := v155
		vals[162] = v162
		v170 := v163
		vals[170] = v170
		v178 := v171
		vals[178] = v178
		v186 := v179
		vals[186] = v186
		v194 := v187
		vals[194] = v194
		v201 := v195
		vals[201] = v201
		v208 := v202
		vals[208] = v208
		v216 := v209
		vals[216] = v216
		v224 := v217
		vals[224] = v224
		v248 := v225
		vals[248] = v248
		var v250 uint64
		if v61 == 0x1 {
			v250 = 1
		}
		vals[250] = v250
		vals[251] = 0x0
		v254 := v249
		vals[254] = v254
		var v256 uint64
		if v61 == 0x2 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v259 := v255
		vals[259] = v259
		var v261 uint64
		if v61 == 0x3 {
			v261 = 1
		}
		vals[261] = v261
		vals[262] = 0x0
		v264 := v260
		vals[264] = v264
		var v266 uint64
		if v61 == 0x7 {
			v266 = 1
		}
		vals[266] = v266
		vals[267] = 0x0
		v269 := v265
		vals[269] = v269
		var v271 uint64
		if v61 == 0x4 {
			v271 = 1
		}
		vals[271] = v271
		vals[272] = 0x0
		v274 := v270
		vals[274] = v274
		var v276 uint64
		if v61 == 0x5 {
			v276 = 1
		}
		vals[276] = v276
		vals[277] = 0x0
		v279 := v275
		vals[279] = v279
		vals[281] = 0x0
		v283 := v280
		vals[283] = v283
		var v285 uint64
		if v61 == 0x6 {
			v285 = 1
		}
		vals[285] = v285
		v286 := v285
		vals[286] = v286
		var v288 uint64
		if v286 != 0 {
			v288 = v287
		} else {
			v288 = v284
		}
		vals[288] = v288
		vals[290] = 0x0
		v292 := v289
		vals[292] = v292
		var v294 uint64
		if v61 == 0x8 {
			v294 = 1
		}
		vals[294] = v294
		vals[295] = 0x0
		v297 := v293
		vals[297] = v297
		var v299 uint64
		if v61 == 0x9 {
			v299 = 1
		}
		vals[299] = v299
		vals[300] = 0x0
		v302 := v298
		vals[302] = v302
		vals[304] = 0x0
		v306 := v303
		vals[306] = v306
		v309 := v307
		vals[309] = v309
		v312 := v310
		vals[312] = v312
		v315 := v313
		vals[315] = v315
		v318 := v316
		vals[318] = v318
		v321 := v319
		vals[321] = v321
		v324 := v322
		vals[324] = v324
		v327 := v325
		vals[327] = v327
		v330 := v328
		vals[330] = v330
		v333 := v331
		vals[333] = v333
		var v336 uint64
		if v99 != 0 {
			v336 = v335
		} else {
			v336 = v334
		}
		vals[336] = v336
		var v339 uint64
		if v99 != 0 {
			v339 = v338
		} else {
			v339 = v337
		}
		vals[339] = v339
		var v342 uint64
		if v99 != 0 {
			v342 = v341
		} else {
			v342 = v340
		}
		vals[342] = v342
		vals[344] = 0x0
		vals[346] = 0x0
		vals[347] = 0x0
		v349 := v343
		vals[349] = v349
		v353 := v350
		vals[353] = v353
		v354 := v353
		vals[354] = v354
		v357 := v355
		vals[357] = v357
		vals[358] = 0x0
	case 0x6:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x6
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[31] = 0x0
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x6
		}
		vals[34] = v34
		vals[35] = 0x0
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x6
		}
		vals[39] = v39
		vals[40] = 0x1
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x6
		}
		vals[43] = v43
		vals[44] = 0x0
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x6
		}
		vals[47] = v47
		vals[53] = 0x6
		vals[54] = 0x6
		v55 := v43
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		v59 := v58
		vals[59] = v59
		v60 := v59
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		v72 := v71
		vals[72] = v72
		vals[73] = 0x0
		v82 := v81
		vals[82] = v82
		vals[85] = 0x0
		v98 := v97
		vals[98] = v98
		vals[99] = 0x0
		v112 := v111
		vals[112] = v112
		vals[113] = 0x0
		v114 := v42
		vals[114] = v114
		v115 := v114
		vals[115] = v115
		vals[116] = 0x0
		v117 := v115
		vals[117] = v117
		var v126 uint64
		if v117 != 0 {
			v126 = v122
		} else {
			v126 = v125
		}
		vals[126] = v126
		vals[128] = 0x1
		vals[129] = 0x1
		v140 := v139
		vals[140] = v140
		v147 := v146
		vals[147] = v147
		v154 := v153
		vals[154] = v154
		v162 := v161
		vals[162] = v162
		v170 := v169
		vals[170] = v170
		v178 := v177
		vals[178] = v178
		v186 := v185
		vals[186] = v186
		v194 := v193
		vals[194] = v194
		v201 := v200
		vals[201] = v201
		v208 := v207
		vals[208] = v208
		v216 := v215
		vals[216] = v216
		v224 := v223
		vals[224] = v224
		v248 := v247
		vals[248] = v248
		var v250 uint64
		if v61 == 0x1 {
			v250 = 1
		}
		vals[250] = v250
		vals[251] = 0x0
		v254 := v249
		vals[254] = v254
		var v256 uint64
		if v61 == 0x2 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v259 := v255
		vals[259] = v259
		var v261 uint64
		if v61 == 0x3 {
			v261 = 1
		}
		vals[261] = v261
		vals[262] = 0x0
		v264 := v260
		vals[264] = v264
		var v266 uint64
		if v61 == 0x7 {
			v266 = 1
		}
		vals[266] = v266
		vals[267] = 0x0
		v269 := v265
		vals[269] = v269
		var v271 uint64
		if v61 == 0x4 {
			v271 = 1
		}
		vals[271] = v271
		vals[272] = 0x0
		v274 := v270
		vals[274] = v274
		var v276 uint64
		if v61 == 0x5 {
			v276 = 1
		}
		vals[276] = v276
		vals[277] = 0x0
		v279 := v275
		vals[279] = v279
		vals[281] = 0x0
		v283 := v280
		vals[283] = v283
		var v285 uint64
		if v61 == 0x6 {
			v285 = 1
		}
		vals[285] = v285
		vals[286] = 0x0
		v288 := v284
		vals[288] = v288
		v290 := v266
		vals[290] = v290
		var v292 uint64
		if v290 != 0 {
			v292 = v291
		} else {
			v292 = v289
		}
		vals[292] = v292
		var v294 uint64
		if v61 == 0x8 {
			v294 = 1
		}
		vals[294] = v294
		vals[295] = 0x0
		v297 := v293
		vals[297] = v297
		var v299 uint64
		if v61 == 0x9 {
			v299 = 1
		}
		vals[299] = v299
		vals[300] = 0x0
		v302 := v298
		vals[302] = v302
		vals[304] = 0x0
		v306 := v303
		vals[306] = v306
		v309 := v307
		vals[309] = v309
		v312 := v310
		vals[312] = v312
		v315 := v313
		vals[315] = v315
		v318 := v316
		vals[318] = v318
		v321 := v319
		vals[321] = v321
		v324 := v322
		vals[324] = v324
		v327 := v325
		vals[327] = v327
		v330 := v328
		vals[330] = v330
		v333 := v331
		vals[333] = v333
		v336 := v334
		vals[336] = v336
		v339 := v337
		vals[339] = v339
		v342 := v340
		vals[342] = v342
		v344 := v117 & v119
		vals[344] = v344
		v346 := v117 & v345
		vals[346] = v346
		v347 := (v344 | v346)
		vals[347] = v347
		var v349 uint64
		if v347 != 0 {
			v349 = v348
		} else {
			v349 = v343
		}
		vals[349] = v349
		var v353 uint64
		if v344 != 0 {
			v353 = v352
		} else {
			v353 = v350
		}
		vals[353] = v353
		var v354 uint64
		if v346 != 0 {
			v354 = v351
		} else {
			v354 = v353
		}
		vals[354] = v354
		var v357 uint64
		if v347 != 0 {
			v357 = v356
		} else {
			v357 = v355
		}
		vals[357] = v357
		vals[358] = 0x0
	case 0x7:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x7
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[31] = 0x0
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x7
		}
		vals[34] = v34
		vals[35] = 0x0
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x7
		}
		vals[39] = v39
		vals[40] = 0x0
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x7
		}
		vals[43] = v43
		vals[44] = 0x1
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x7
		}
		vals[47] = v47
		vals[53] = 0x7
		v54 := v47
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		v59 := v58
		vals[59] = v59
		v60 := v59
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		v72 := v71
		vals[72] = v72
		vals[73] = 0x0
		v82 := v81
		vals[82] = v82
		vals[85] = 0x0
		v98 := v97
		vals[98] = v98
		vals[99] = 0x0
		v112 := v111
		vals[112] = v112
		vals[113] = 0x0
		vals[114] = 0x0
		vals[115] = 0x0
		vals[116] = 0x0
		vals[117] = 0x0
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[129] = 0x1
		v140 := v139
		vals[140] = v140
		v147 := v146
		vals[147] = v147
		v154 := v153
		vals[154] = v154
		v162 := v161
		vals[162] = v162
		v170 := v169
		vals[170] = v170
		v178 := v177
		vals[178] = v178
		v186 := v185
		vals[186] = v186
		v194 := v193
		vals[194] = v194
		v201 := v200
		vals[201] = v201
		v208 := v207
		vals[208] = v208
		v216 := v215
		vals[216] = v216
		v224 := v223
		vals[224] = v224
		v248 := v247
		vals[248] = v248
		var v250 uint64
		if v61 == 0x1 {
			v250 = 1
		}
		vals[250] = v250
		vals[251] = 0x0
		v254 := v249
		vals[254] = v254
		var v256 uint64
		if v61 == 0x2 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v259 := v255
		vals[259] = v259
		var v261 uint64
		if v61 == 0x3 {
			v261 = 1
		}
		vals[261] = v261
		vals[262] = 0x0
		v264 := v260
		vals[264] = v264
		var v266 uint64
		if v61 == 0x7 {
			v266 = 1
		}
		vals[266] = v266
		vals[267] = 0x0
		v269 := v265
		vals[269] = v269
		var v271 uint64
		if v61 == 0x4 {
			v271 = 1
		}
		vals[271] = v271
		vals[272] = 0x0
		v274 := v270
		vals[274] = v274
		var v276 uint64
		if v61 == 0x5 {
			v276 = 1
		}
		vals[276] = v276
		vals[277] = 0x0
		v279 := v275
		vals[279] = v279
		vals[281] = 0x0
		v283 := v280
		vals[283] = v283
		var v285 uint64
		if v61 == 0x6 {
			v285 = 1
		}
		vals[285] = v285
		vals[286] = 0x0
		v288 := v284
		vals[288] = v288
		vals[290] = 0x0
		v292 := v289
		vals[292] = v292
		var v294 uint64
		if v61 == 0x8 {
			v294 = 1
		}
		vals[294] = v294
		v295 := v294
		vals[295] = v295
		var v297 uint64
		if v295 != 0 {
			v297 = v296
		} else {
			v297 = v293
		}
		vals[297] = v297
		var v299 uint64
		if v61 == 0x9 {
			v299 = 1
		}
		vals[299] = v299
		vals[300] = 0x0
		v302 := v298
		vals[302] = v302
		vals[304] = 0x0
		v306 := v303
		vals[306] = v306
		v309 := v307
		vals[309] = v309
		v312 := v310
		vals[312] = v312
		v315 := v313
		vals[315] = v315
		v318 := v316
		vals[318] = v318
		v321 := v319
		vals[321] = v321
		v324 := v322
		vals[324] = v324
		v327 := v325
		vals[327] = v327
		v330 := v328
		vals[330] = v330
		v333 := v331
		vals[333] = v333
		v336 := v334
		vals[336] = v336
		v339 := v337
		vals[339] = v339
		v342 := v340
		vals[342] = v342
		vals[344] = 0x0
		vals[346] = 0x0
		vals[347] = 0x0
		v349 := v343
		vals[349] = v349
		v353 := v350
		vals[353] = v353
		v354 := v353
		vals[354] = v354
		v357 := v355
		vals[357] = v357
		vals[358] = 0x0
	case 0x8:
		vals[3] = 0x1
		v6 := v5
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x8
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[31] = 0x0
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x8
		}
		vals[34] = v34
		vals[35] = 0x0
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x8
		}
		vals[39] = v39
		vals[40] = 0x0
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x8
		}
		vals[43] = v43
		vals[44] = 0x0
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x8
		}
		vals[47] = v47
		v53 := v52
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		v59 := v58
		vals[59] = v59
		v60 := v59
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		v72 := v71
		vals[72] = v72
		vals[73] = 0x0
		v82 := v81
		vals[82] = v82
		vals[85] = 0x0
		v98 := v97
		vals[98] = v98
		vals[99] = 0x0
		v112 := v111
		vals[112] = v112
		vals[113] = 0x0
		vals[114] = 0x0
		vals[115] = 0x0
		vals[116] = 0x0
		vals[117] = 0x0
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[129] = 0x0
		v140 := v127
		vals[140] = v140
		v147 := v141
		vals[147] = v147
		v154 := v148
		vals[154] = v154
		v162 := v155
		vals[162] = v162
		v170 := v163
		vals[170] = v170
		v178 := v171
		vals[178] = v178
		v186 := v179
		vals[186] = v186
		v194 := v187
		vals[194] = v194
		v201 := v195
		vals[201] = v201
		v208 := v202
		vals[208] = v208
		v216 := v209
		vals[216] = v216
		v224 := v217
		vals[224] = v224
		v248 := v225
		vals[248] = v248
		var v250 uint64
		if v61 == 0x1 {
			v250 = 1
		}
		vals[250] = v250
		vals[251] = 0x0
		v254 := v249
		vals[254] = v254
		var v256 uint64
		if v61 == 0x2 {
			v256 = 1
		}
		vals[256] = v256
		vals[257] = 0x0
		v259 := v255
		vals[259] = v259
		var v261 uint64
		if v61 == 0x3 {
			v261 = 1
		}
		vals[261] = v261
		vals[262] = 0x0
		v264 := v260
		vals[264] = v264
		var v266 uint64
		if v61 == 0x7 {
			v266 = 1
		}
		vals[266] = v266
		vals[267] = 0x0
		v269 := v265
		vals[269] = v269
		var v271 uint64
		if v61 == 0x4 {
			v271 = 1
		}
		vals[271] = v271
		vals[272] = 0x0
		v274 := v270
		vals[274] = v274
		var v276 uint64
		if v61 == 0x5 {
			v276 = 1
		}
		vals[276] = v276
		vals[277] = 0x0
		v279 := v275
		vals[279] = v279
		vals[281] = 0x0
		v283 := v280
		vals[283] = v283
		var v285 uint64
		if v61 == 0x6 {
			v285 = 1
		}
		vals[285] = v285
		vals[286] = 0x0
		v288 := v284
		vals[288] = v288
		vals[290] = 0x0
		v292 := v289
		vals[292] = v292
		var v294 uint64
		if v61 == 0x8 {
			v294 = 1
		}
		vals[294] = v294
		vals[295] = 0x0
		v297 := v293
		vals[297] = v297
		var v299 uint64
		if v61 == 0x9 {
			v299 = 1
		}
		vals[299] = v299
		v300 := v299
		vals[300] = v300
		var v302 uint64
		if v300 != 0 {
			v302 = v301
		} else {
			v302 = v298
		}
		vals[302] = v302
		v304 := v250
		vals[304] = v304
		var v306 uint64
		if v304 != 0 {
			v306 = v305
		} else {
			v306 = v303
		}
		vals[306] = v306
		v309 := v307
		vals[309] = v309
		v312 := v310
		vals[312] = v312
		v315 := v313
		vals[315] = v315
		v318 := v316
		vals[318] = v318
		v321 := v319
		vals[321] = v321
		v324 := v322
		vals[324] = v324
		v327 := v325
		vals[327] = v327
		v330 := v328
		vals[330] = v330
		v333 := v331
		vals[333] = v333
		v336 := v334
		vals[336] = v336
		v339 := v337
		vals[339] = v339
		v342 := v340
		vals[342] = v342
		vals[344] = 0x0
		vals[346] = 0x0
		vals[347] = 0x0
		v349 := v343
		vals[349] = v349
		v353 := v350
		vals[353] = v353
		v354 := v353
		vals[354] = v354
		v357 := v355
		vals[357] = v357
		vals[358] = 0x0
	case 0x9:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x9
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[31] = 0x0
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = 0x9
		}
		vals[34] = v34
		vals[35] = 0x0
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = 0x9
		}
		vals[39] = v39
		vals[40] = 0x0
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = 0x9
		}
		vals[43] = v43
		vals[44] = 0x0
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = 0x9
		}
		vals[47] = v47
		vals[53] = 0x9
		vals[54] = 0x9
		vals[55] = 0x9
		vals[56] = 0x9
		vals[57] = 0x9
		vals[58] = 0x9
		vals[59] = 0x9
		vals[60] = 0x9
		vals[61] = 0x9
		v72 := v71
		vals[72] = v72
		vals[73] = 0x0
		v82 := v81
		vals[82] = v82
		vals[85] = 0x0
		v98 := v97
		vals[98] = v98
		vals[99] = 0x0
		v112 := v111
		vals[112] = v112
		vals[113] = 0x0
		vals[114] = 0x0
		vals[115] = 0x0
		vals[116] = 0x0
		vals[117] = 0x0
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[129] = 0x0
		v140 := v127
		vals[140] = v140
		v147 := v141
		vals[147] = v147
		v154 := v148
		vals[154] = v154
		v162 := v155
		vals[162] = v162
		v170 := v163
		vals[170] = v170
		v178 := v171
		vals[178] = v178
		v186 := v179
		vals[186] = v186
		v194 := v187
		vals[194] = v194
		v201 := v195
		vals[201] = v201
		v208 := v202
		vals[208] = v208
		v216 := v209
		vals[216] = v216
		v224 := v217
		vals[224] = v224
		v248 := v225
		vals[248] = v248
		vals[250] = 0x0
		vals[251] = 0x0
		v254 := v249
		vals[254] = v254
		vals[256] = 0x0
		vals[257] = 0x0
		v259 := v255
		vals[259] = v259
		vals[261] = 0x0
		vals[262] = 0x0
		v264 := v260
		vals[264] = v264
		vals[266] = 0x0
		vals[267] = 0x0
		v269 := v265
		vals[269] = v269
		vals[271] = 0x0
		vals[272] = 0x0
		v274 := v270
		vals[274] = v274
		vals[276] = 0x0
		vals[277] = 0x0
		v279 := v275
		vals[279] = v279
		vals[281] = 0x0
		v283 := v280
		vals[283] = v283
		vals[285] = 0x0
		vals[286] = 0x0
		v288 := v284
		vals[288] = v288
		vals[290] = 0x0
		v292 := v289
		vals[292] = v292
		vals[294] = 0x0
		vals[295] = 0x0
		v297 := v293
		vals[297] = v297
		vals[299] = 0x1
		vals[300] = 0x0
		v302 := v298
		vals[302] = v302
		vals[304] = 0x0
		v306 := v303
		vals[306] = v306
		v309 := v307
		vals[309] = v309
		v312 := v310
		vals[312] = v312
		v315 := v313
		vals[315] = v315
		v318 := v316
		vals[318] = v318
		v321 := v319
		vals[321] = v321
		v324 := v322
		vals[324] = v324
		v327 := v325
		vals[327] = v327
		v330 := v328
		vals[330] = v330
		v333 := v331
		vals[333] = v333
		v336 := v334
		vals[336] = v336
		v339 := v337
		vals[339] = v339
		v342 := v340
		vals[342] = v342
		vals[344] = 0x0
		vals[346] = 0x0
		vals[347] = 0x0
		v349 := v343
		vals[349] = v349
		v353 := v350
		vals[353] = v353
		v354 := v353
		vals[354] = v354
		v357 := v355
		vals[357] = v357
		vals[358] = 0x1
	default:
		var v3 uint64
		if v1 == 0x8 {
			v3 = 1
		}
		vals[3] = v3
		var v6 uint64
		if v3 != 0 {
			v6 = v5
		} else {
			v6 = v0
		}
		vals[6] = v6
		var v8 uint64
		if v1 == 0x0 {
			v8 = 1
		}
		vals[8] = v8
		var v10 uint64
		if v1 == 0x1 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v1 == 0x2 {
			v12 = 1
		}
		vals[12] = v12
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = v1
		}
		vals[17] = v17
		var v18 uint64
		if v1 == 0x3 {
			v18 = 1
		}
		vals[18] = v18
		var v31 uint64
		if v1 == 0x4 {
			v31 = 1
		}
		vals[31] = v31
		var v34 uint64
		if v33 != 0 {
			v34 = 0x7
		} else {
			v34 = v1
		}
		vals[34] = v34
		var v35 uint64
		if v1 == 0x5 {
			v35 = 1
		}
		vals[35] = v35
		var v39 uint64
		if v37 != 0 {
			v39 = 0x6
		} else {
			v39 = v1
		}
		vals[39] = v39
		var v40 uint64
		if v1 == 0x6 {
			v40 = 1
		}
		vals[40] = v40
		var v43 uint64
		if v42 != 0 {
			v43 = 0x7
		} else {
			v43 = v1
		}
		vals[43] = v43
		var v44 uint64
		if v1 == 0x7 {
			v44 = 1
		}
		vals[44] = v44
		var v47 uint64
		if v46 != 0 {
			v47 = 0x8
		} else {
			v47 = v1
		}
		vals[47] = v47
		var v53 uint64
		if v3 != 0 {
			v53 = v52
		} else {
			v53 = v1
		}
		vals[53] = v53
		var v54 uint64
		if v44 != 0 {
			v54 = v47
		} else {
			v54 = v53
		}
		vals[54] = v54
		var v55 uint64
		if v40 != 0 {
			v55 = v43
		} else {
			v55 = v54
		}
		vals[55] = v55
		var v56 uint64
		if v35 != 0 {
			v56 = v39
		} else {
			v56 = v55
		}
		vals[56] = v56
		var v57 uint64
		if v31 != 0 {
			v57 = v34
		} else {
			v57 = v56
		}
		vals[57] = v57
		var v58 uint64
		if v18 != 0 {
			v58 = v30
		} else {
			v58 = v57
		}
		vals[58] = v58
		var v59 uint64
		if v12 != 0 {
			v59 = v17
		} else {
			v59 = v58
		}
		vals[59] = v59
		var v60 uint64
		if v10 != 0 {
			v60 = 0x2
		} else {
			v60 = v59
		}
		vals[60] = v60
		var v61 uint64
		if v8 != 0 {
			v61 = 0x1
		} else {
			v61 = v60
		}
		vals[61] = v61
		var v72 uint64
		if v10 != 0 {
			v72 = v67
		} else {
			v72 = v71
		}
		vals[72] = v72
		v73 := v18 & v26
		vals[73] = v73
		var v82 uint64
		if v73 != 0 {
			v82 = v78
		} else {
			v82 = v81
		}
		vals[82] = v82
		v85 := v18 & v84
		vals[85] = v85
		var v98 uint64
		if v85 != 0 {
			v98 = v94
		} else {
			v98 = v97
		}
		vals[98] = v98
		v99 := v35 & v37
		vals[99] = v99
		var v112 uint64
		if v99 != 0 {
			v112 = v108
		} else {
			v112 = v111
		}
		vals[112] = v112
		v113 := v31 & v33
		vals[113] = v113
		v114 := v40 & v42
		vals[114] = v114
		v115 := (v113 | v114)
		vals[115] = v115
		v116 := v18 & v23
		vals[116] = v116
		v117 := (v115 | v116)
		vals[117] = v117
		var v126 uint64
		if v117 != 0 {
			v126 = v122
		} else {
			v126 = v125
		}
		vals[126] = v126
		v128 := (v31 | v40)
		vals[128] = v128
		v129 := (v128 | v44)
		vals[129] = v129
		var v140 uint64
		if v129 != 0 {
			v140 = v139
		} else {
			v140 = v127
		}
		vals[140] = v140
		var v147 uint64
		if v129 != 0 {
			v147 = v146
		} else {
			v147 = v141
		}
		vals[147] = v147
		var v154 uint64
		if v129 != 0 {
			v154 = v153
		} else {
			v154 = v148
		}
		vals[154] = v154
		var v162 uint64
		if v129 != 0 {
			v162 = v161
		} else {
			v162 = v155
		}
		vals[162] = v162
		var v170 uint64
		if v129 != 0 {
			v170 = v169
		} else {
			v170 = v163
		}
		vals[170] = v170
		var v178 uint64
		if v129 != 0 {
			v178 = v177
		} else {
			v178 = v171
		}
		vals[178] = v178
		var v186 uint64
		if v129 != 0 {
			v186 = v185
		} else {
			v186 = v179
		}
		vals[186] = v186
		var v194 uint64
		if v129 != 0 {
			v194 = v193
		} else {
			v194 = v187
		}
		vals[194] = v194
		var v201 uint64
		if v129 != 0 {
			v201 = v200
		} else {
			v201 = v195
		}
		vals[201] = v201
		var v208 uint64
		if v129 != 0 {
			v208 = v207
		} else {
			v208 = v202
		}
		vals[208] = v208
		var v216 uint64
		if v129 != 0 {
			v216 = v215
		} else {
			v216 = v209
		}
		vals[216] = v216
		var v224 uint64
		if v129 != 0 {
			v224 = v223
		} else {
			v224 = v217
		}
		vals[224] = v224
		var v248 uint64
		if v129 != 0 {
			v248 = v247
		} else {
			v248 = v225
		}
		vals[248] = v248
		var v250 uint64
		if v61 == 0x1 {
			v250 = 1
		}
		vals[250] = v250
		v251 := v8 & v250
		vals[251] = v251
		var v254 uint64
		if v251 != 0 {
			v254 = v253
		} else {
			v254 = v249
		}
		vals[254] = v254
		var v256 uint64
		if v61 == 0x2 {
			v256 = 1
		}
		vals[256] = v256
		v257 := v10 & v256
		vals[257] = v257
		var v259 uint64
		if v257 != 0 {
			v259 = v258
		} else {
			v259 = v255
		}
		vals[259] = v259
		var v261 uint64
		if v61 == 0x3 {
			v261 = 1
		}
		vals[261] = v261
		v262 := v12 & v261
		vals[262] = v262
		var v264 uint64
		if v262 != 0 {
			v264 = v263
		} else {
			v264 = v260
		}
		vals[264] = v264
		var v266 uint64
		if v61 == 0x7 {
			v266 = 1
		}
		vals[266] = v266
		v267 := v18 & v266
		vals[267] = v267
		var v269 uint64
		if v267 != 0 {
			v269 = v268
		} else {
			v269 = v265
		}
		vals[269] = v269
		var v271 uint64
		if v61 == 0x4 {
			v271 = 1
		}
		vals[271] = v271
		v272 := v18 & v271
		vals[272] = v272
		var v274 uint64
		if v272 != 0 {
			v274 = v273
		} else {
			v274 = v270
		}
		vals[274] = v274
		var v276 uint64
		if v61 == 0x5 {
			v276 = 1
		}
		vals[276] = v276
		v277 := v18 & v276
		vals[277] = v277
		var v279 uint64
		if v277 != 0 {
			v279 = v278
		} else {
			v279 = v275
		}
		vals[279] = v279
		v281 := v31 & v266
		vals[281] = v281
		var v283 uint64
		if v281 != 0 {
			v283 = v282
		} else {
			v283 = v280
		}
		vals[283] = v283
		var v285 uint64
		if v61 == 0x6 {
			v285 = 1
		}
		vals[285] = v285
		v286 := v35 & v285
		vals[286] = v286
		var v288 uint64
		if v286 != 0 {
			v288 = v287
		} else {
			v288 = v284
		}
		vals[288] = v288
		v290 := v40 & v266
		vals[290] = v290
		var v292 uint64
		if v290 != 0 {
			v292 = v291
		} else {
			v292 = v289
		}
		vals[292] = v292
		var v294 uint64
		if v61 == 0x8 {
			v294 = 1
		}
		vals[294] = v294
		v295 := v44 & v294
		vals[295] = v295
		var v297 uint64
		if v295 != 0 {
			v297 = v296
		} else {
			v297 = v293
		}
		vals[297] = v297
		var v299 uint64
		if v61 == 0x9 {
			v299 = 1
		}
		vals[299] = v299
		v300 := v3 & v299
		vals[300] = v300
		var v302 uint64
		if v300 != 0 {
			v302 = v301
		} else {
			v302 = v298
		}
		vals[302] = v302
		v304 := v3 & v250
		vals[304] = v304
		var v306 uint64
		if v304 != 0 {
			v306 = v305
		} else {
			v306 = v303
		}
		vals[306] = v306
		var v309 uint64
		if v10 != 0 {
			v309 = v308
		} else {
			v309 = v307
		}
		vals[309] = v309
		var v312 uint64
		if v10 != 0 {
			v312 = v311
		} else {
			v312 = v310
		}
		vals[312] = v312
		var v315 uint64
		if v10 != 0 {
			v315 = v314
		} else {
			v315 = v313
		}
		vals[315] = v315
		var v318 uint64
		if v73 != 0 {
			v318 = v317
		} else {
			v318 = v316
		}
		vals[318] = v318
		var v321 uint64
		if v73 != 0 {
			v321 = v320
		} else {
			v321 = v319
		}
		vals[321] = v321
		var v324 uint64
		if v73 != 0 {
			v324 = v323
		} else {
			v324 = v322
		}
		vals[324] = v324
		var v327 uint64
		if v85 != 0 {
			v327 = v326
		} else {
			v327 = v325
		}
		vals[327] = v327
		var v330 uint64
		if v85 != 0 {
			v330 = v329
		} else {
			v330 = v328
		}
		vals[330] = v330
		var v333 uint64
		if v85 != 0 {
			v333 = v332
		} else {
			v333 = v331
		}
		vals[333] = v333
		var v336 uint64
		if v99 != 0 {
			v336 = v335
		} else {
			v336 = v334
		}
		vals[336] = v336
		var v339 uint64
		if v99 != 0 {
			v339 = v338
		} else {
			v339 = v337
		}
		vals[339] = v339
		var v342 uint64
		if v99 != 0 {
			v342 = v341
		} else {
			v342 = v340
		}
		vals[342] = v342
		v344 := v117 & v119
		vals[344] = v344
		v346 := v117 & v345
		vals[346] = v346
		v347 := (v344 | v346)
		vals[347] = v347
		var v349 uint64
		if v347 != 0 {
			v349 = v348
		} else {
			v349 = v343
		}
		vals[349] = v349
		var v353 uint64
		if v344 != 0 {
			v353 = v352
		} else {
			v353 = v350
		}
		vals[353] = v353
		var v354 uint64
		if v346 != 0 {
			v354 = v351
		} else {
			v354 = v353
		}
		vals[354] = v354
		var v357 uint64
		if v347 != 0 {
			v357 = v356
		} else {
			v357 = v355
		}
		vals[357] = v357
		var v358 uint64
		if v1 == 0x9 {
			v358 = 1
		}
		vals[358] = v358
	}
	done := vals[358] != 0
	if vals[3] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[225]
		}
	}
	l0 := vals[6] & 0x1fff
	l1 := vals[61] & 0xf
	l2 := vals[72] & 0xff
	l3 := vals[82] & 0xff
	l4 := vals[98] & 0xff
	l5 := vals[112] & 0xff
	l6 := vals[126] & 0xff
	l7 := vals[140] & 0xffffffffffff
	l8 := vals[147] & 0xffffffffffff
	l9 := vals[154] & 0xffffffffffff
	l10 := vals[162] & 0xffffffffffff
	l11 := vals[170] & 0xffffffffffff
	l12 := vals[178] & 0xffffffffffff
	l13 := vals[186] & 0xffffffffffff
	l14 := vals[194] & 0xffffffffffff
	l15 := vals[201] & 0xffffffffffff
	l16 := vals[208] & 0xffffffffffff
	l17 := vals[216] & 0xffffffffffff
	l18 := vals[224] & 0xffffffffffff
	l19 := vals[248] & 0xffffffff
	l20 := vals[254] & 0xffffff
	l21 := vals[259] & 0xffffff
	l22 := vals[264] & 0xffffff
	l23 := vals[269] & 0xffffff
	l24 := vals[274] & 0xffffff
	l25 := vals[279] & 0xffffff
	l26 := vals[283] & 0xffffff
	l27 := vals[288] & 0xffffff
	l28 := vals[292] & 0xffffff
	l29 := vals[297] & 0xffffff
	l30 := vals[302] & 0xffffff
	l31 := vals[306] & 0xffffff
	l32 := vals[309] & 0xffffff
	l33 := vals[312] & 0xffffff
	l34 := vals[315] & 0xffffff
	l35 := vals[318] & 0xffffff
	l36 := vals[321] & 0xffffff
	l37 := vals[324] & 0xffffff
	l38 := vals[327] & 0xffffff
	l39 := vals[330] & 0xffffff
	l40 := vals[333] & 0xffffff
	l41 := vals[336] & 0xffffff
	l42 := vals[339] & 0xffffff
	l43 := vals[342] & 0xffffff
	l44 := vals[349] & 0xffffff
	l45 := vals[354] & 0xffffff
	l46 := vals[357] & 0xffffff
	vals[0] = l0
	vals[1] = l1
	vals[13] = l2
	vals[32] = l3
	vals[36] = l4
	vals[41] = l5
	vals[45] = l6
	vals[127] = l7
	vals[141] = l8
	vals[148] = l9
	vals[155] = l10
	vals[163] = l11
	vals[171] = l12
	vals[179] = l13
	vals[187] = l14
	vals[195] = l15
	vals[202] = l16
	vals[209] = l17
	vals[217] = l18
	vals[225] = l19
	vals[249] = l20
	vals[255] = l21
	vals[260] = l22
	vals[265] = l23
	vals[270] = l24
	vals[275] = l25
	vals[280] = l26
	vals[284] = l27
	vals[289] = l28
	vals[293] = l29
	vals[298] = l30
	vals[303] = l31
	vals[307] = l32
	vals[310] = l33
	vals[313] = l34
	vals[316] = l35
	vals[319] = l36
	vals[322] = l37
	vals[325] = l38
	vals[328] = l39
	vals[331] = l40
	vals[334] = l41
	vals[337] = l42
	vals[340] = l43
	vals[343] = l44
	vals[350] = l45
	vals[355] = l46
	return cycles + 1, done
}

func step_h264_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[147]
	m0 := mems[0]
	v0 := vals[0]
	v7 := vals[7]
	v13 := vals[13]
	v27 := vals[27]
	v31 := vals[31]
	v36 := vals[36]
	v40 := vals[40]
	v127 := vals[127]
	v135 := vals[135]
	v138 := vals[138]
	v141 := vals[141]
	v144 := vals[144]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v73 uint64
		if v40 != 0x0 {
			v73 = 1
		}
		v75 := (v40 - 0x1) & 0xff
		var v76 uint64
		if v73 != 0 {
			v76 = v75
		} else {
			v76 = v40
		}
		var v96 uint64
		if v36 != 0x0 {
			v96 = 1
		}
		v97 := (v36 - 0x1) & 0xff
		var v98 uint64
		if v96 != 0 {
			v98 = v97
		} else {
			v98 = v36
		}
		var v105 uint64
		if v31 != 0x0 {
			v105 = 1
		}
		v106 := (v31 - 0x1) & 0xff
		var v107 uint64
		if v105 != 0 {
			v107 = v106
		} else {
			v107 = v31
		}
		var v115 uint64
		if v27 != 0x0 {
			v115 = 1
		}
		v116 := (v27 - 0x1) & 0xff
		var v117 uint64
		if v115 != 0 {
			v117 = v116
		} else {
			v117 = v27
		}
		switch v0 {
		case 0x0:
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = 0x1
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x1:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			v122 := (v67 >> 1)
			v145 := (v144 + 0x1) & 0xffffff
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v122
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v145
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = 0x2
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x2:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = 0x2
			}
			v56 := v11
			v57 := v56
			v58 := v57
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x3:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			v16 := v14 & 0x3
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v21 uint64
			if v16 == 0x1 {
				v21 = 1
			}
			var v24 uint64
			if v21 != 0 {
				v24 = 0x4
			} else {
				v24 = 0x5
			}
			var v25 uint64
			if v18 != 0 {
				v25 = 0x7
			} else {
				v25 = v24
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			var v69 uint64
			if v67 != 0x0 {
				v69 = 1
			}
			var v72 uint64
			if v69 != 0 {
				v72 = 0xc
			} else {
				v72 = 0x8
			}
			v81 := (v14 >> 9)
			v83 := v81 & 0x7
			v84 := v83
			v86 := (v84 << 1) & 0xff
			v87 := (v84 + v86) & 0xff
			var v101 uint64
			if v16 == 0x2 {
				v101 = 1
			}
			v104 := (0x3 + v87) & 0xff
			v111 := v67
			v112 := (v67 >> 2)
			v113 := (v111 - v112) & 0xff
			v114 := (0xa + v113) & 0xff
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v129 := ^v69 & 0x1
			v133 := (v127 + 0x1) & 0xffffff
			v139 := (v138 + 0x1) & 0xffffff
			v142 := (v141 + 0x1) & 0xffffff
			v55 := v25
			v56 := v55
			v57 := v56
			v58 := v57
			v62 := v18
			v63 := v62
			var v77 uint64
			if v63 != 0 {
				v77 = v72
			} else {
				v77 = v76
			}
			v99 := v98
			v102 := v101
			var v108 uint64
			if v102 != 0 {
				v108 = v104
			} else {
				v108 = v107
			}
			v109 := v21
			var v118 uint64
			if v109 != 0 {
				v118 = v114
			} else {
				v118 = v117
			}
			v121 := v13
			v126 := v125
			v128 := v63 & v69
			v130 := v63 & v129
			v131 := (v128 | v130)
			var v134 uint64
			if v131 != 0 {
				v134 = v133
			} else {
				v134 = v127
			}
			v137 := v135
			var v140 uint64
			if v102 != 0 {
				v140 = v139
			} else {
				v140 = v138
			}
			var v143 uint64
			if v109 != 0 {
				v143 = v142
			} else {
				v143 = v141
			}
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x4:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			var v28 uint64
			if v27 == 0x0 {
				v28 = 1
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			var v69 uint64
			if v67 != 0x0 {
				v69 = 1
			}
			var v72 uint64
			if v69 != 0 {
				v72 = 0xc
			} else {
				v72 = 0x8
			}
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v129 := ^v69 & 0x1
			v133 := (v127 + 0x1) & 0xffffff
			var v29 uint64
			if v28 != 0 {
				v29 = 0x7
			} else {
				v29 = 0x4
			}
			v54 := v29
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v59 := v28
			v61 := v59
			v63 := v61
			var v77 uint64
			if v63 != 0 {
				v77 = v72
			} else {
				v77 = v76
			}
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v128 := v63 & v69
			v130 := v63 & v129
			v131 := (v128 | v130)
			var v134 uint64
			if v131 != 0 {
				v134 = v133
			} else {
				v134 = v127
			}
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x5:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			var v32 uint64
			if v31 == 0x0 {
				v32 = 1
			}
			v81 := (v14 >> 9)
			v83 := v81 & 0x7
			v84 := v83
			v86 := (v84 << 1) & 0xff
			v87 := (v84 + v86) & 0xff
			v88 := (0x2 + v87) & 0xff
			v90 := (v14 >> 8)
			v92 := v90 & 0x1
			var v94 uint64
			if v92 != 0 {
				v94 = 0x14
			} else {
				v94 = 0x0
			}
			v95 := (v88 + v94) & 0xff
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v136 := (v135 + 0x1) & 0xffffff
			var v34 uint64
			if v32 != 0 {
				v34 = 0x6
			} else {
				v34 = 0x5
			}
			v53 := v34
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v77 := v76
			v78 := v32
			var v99 uint64
			if v78 != 0 {
				v99 = v95
			} else {
				v99 = v98
			}
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v134 := v127
			var v137 uint64
			if v78 != 0 {
				v137 = v136
			} else {
				v137 = v135
			}
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x6:
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			var v37 uint64
			if v36 == 0x0 {
				v37 = 1
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			var v69 uint64
			if v67 != 0x0 {
				v69 = 1
			}
			var v72 uint64
			if v69 != 0 {
				v72 = 0xc
			} else {
				v72 = 0x8
			}
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v129 := ^v69 & 0x1
			v133 := (v127 + 0x1) & 0xffffff
			var v38 uint64
			if v37 != 0 {
				v38 = 0x7
			} else {
				v38 = 0x6
			}
			v52 := v38
			v53 := v52
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v60 := v37
			v61 := v60
			v63 := v61
			var v77 uint64
			if v63 != 0 {
				v77 = v72
			} else {
				v77 = v76
			}
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v128 := v63 & v69
			v130 := v63 & v129
			v131 := (v128 | v130)
			var v134 uint64
			if v131 != 0 {
				v134 = v133
			} else {
				v134 = v127
			}
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x7:
			var v41 uint64
			if v40 == 0x0 {
				v41 = 1
			}
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			var v43 uint64
			if v41 != 0 {
				v43 = 0x8
			} else {
				v43 = 0x7
			}
			v51 := v43
			v52 := v51
			v53 := v52
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v13
			v126 := v125
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x8:
			var v46 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v46 = m0[addr] & 0x1fff
			}
			var v47 uint64
			if v46 <= v13 {
				v47 = 1
			}
			var v49 uint64
			if v47 != 0 {
				v49 = 0x9
			} else {
				v49 = 0x1
			}
			v120 := (v13 + 0x1) & 0x1fff
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v50 := v49
			v51 := v50
			v52 := v51
			v53 := v52
			v54 := v53
			v55 := v54
			v56 := v55
			v57 := v56
			v58 := v57
			v77 := v76
			v99 := v98
			v108 := v107
			v118 := v117
			v121 := v120
			v126 := v125
			v134 := v127
			v137 := v135
			v140 := v138
			v143 := v141
			v146 := v144
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		case 0x9:
			break loop
		default:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v14 uint64
			if addr := uint64(v13); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0xfffffff
			}
			v16 := v14 & 0x3
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v21 uint64
			if v16 == 0x1 {
				v21 = 1
			}
			var v24 uint64
			if v21 != 0 {
				v24 = 0x4
			} else {
				v24 = 0x5
			}
			var v25 uint64
			if v18 != 0 {
				v25 = 0x7
			} else {
				v25 = v24
			}
			var v28 uint64
			if v27 == 0x0 {
				v28 = 1
			}
			var v32 uint64
			if v31 == 0x0 {
				v32 = 1
			}
			var v37 uint64
			if v36 == 0x0 {
				v37 = 1
			}
			var v41 uint64
			if v40 == 0x0 {
				v41 = 1
			}
			var v46 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v46 = m0[addr] & 0x1fff
			}
			var v47 uint64
			if v46 <= v13 {
				v47 = 1
			}
			var v49 uint64
			if v47 != 0 {
				v49 = 0x9
			} else {
				v49 = 0x1
			}
			v65 := (v14 >> 2)
			v67 := v65 & 0x3f
			var v69 uint64
			if v67 != 0x0 {
				v69 = 1
			}
			var v72 uint64
			if v69 != 0 {
				v72 = 0xc
			} else {
				v72 = 0x8
			}
			v81 := (v14 >> 9)
			v83 := v81 & 0x7
			v84 := v83
			v86 := (v84 << 1) & 0xff
			v87 := (v84 + v86) & 0xff
			v88 := (0x2 + v87) & 0xff
			v90 := (v14 >> 8)
			v92 := v90 & 0x1
			var v94 uint64
			if v92 != 0 {
				v94 = 0x14
			} else {
				v94 = 0x0
			}
			v95 := (v88 + v94) & 0xff
			var v101 uint64
			if v16 == 0x2 {
				v101 = 1
			}
			v104 := (0x3 + v87) & 0xff
			v111 := v67
			v112 := (v67 >> 2)
			v113 := (v111 - v112) & 0xff
			v114 := (0xa + v113) & 0xff
			v120 := (v13 + 0x1) & 0x1fff
			v122 := (v67 >> 1)
			var v123 uint64
			if v7 != 0x0 {
				v123 = 1
			}
			v124 := (v7 - 0x1) & 0xff
			var v125 uint64
			if v123 != 0 {
				v125 = v124
			} else {
				v125 = v7
			}
			v129 := ^v69 & 0x1
			v133 := (v127 + 0x1) & 0xffffff
			v136 := (v135 + 0x1) & 0xffffff
			v139 := (v138 + 0x1) & 0xffffff
			v142 := (v141 + 0x1) & 0xffffff
			v145 := (v144 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = v0
			}
			var v12 uint64
			if v0 == 0x3 {
				v12 = 1
			}
			var v26 uint64
			if v0 == 0x4 {
				v26 = 1
			}
			var v29 uint64
			if v28 != 0 {
				v29 = 0x7
			} else {
				v29 = v0
			}
			var v30 uint64
			if v0 == 0x5 {
				v30 = 1
			}
			var v34 uint64
			if v32 != 0 {
				v34 = 0x6
			} else {
				v34 = v0
			}
			var v35 uint64
			if v0 == 0x6 {
				v35 = 1
			}
			var v38 uint64
			if v37 != 0 {
				v38 = 0x7
			} else {
				v38 = v0
			}
			var v39 uint64
			if v0 == 0x7 {
				v39 = 1
			}
			var v43 uint64
			if v41 != 0 {
				v43 = 0x8
			} else {
				v43 = v0
			}
			var v44 uint64
			if v0 == 0x8 {
				v44 = 1
			}
			var v50 uint64
			if v44 != 0 {
				v50 = v49
			} else {
				v50 = v0
			}
			var v51 uint64
			if v39 != 0 {
				v51 = v43
			} else {
				v51 = v50
			}
			var v52 uint64
			if v35 != 0 {
				v52 = v38
			} else {
				v52 = v51
			}
			var v53 uint64
			if v30 != 0 {
				v53 = v34
			} else {
				v53 = v52
			}
			var v54 uint64
			if v26 != 0 {
				v54 = v29
			} else {
				v54 = v53
			}
			var v55 uint64
			if v12 != 0 {
				v55 = v25
			} else {
				v55 = v54
			}
			var v56 uint64
			if v6 != 0 {
				v56 = v11
			} else {
				v56 = v55
			}
			var v57 uint64
			if v4 != 0 {
				v57 = 0x2
			} else {
				v57 = v56
			}
			var v58 uint64
			if v2 != 0 {
				v58 = 0x1
			} else {
				v58 = v57
			}
			v59 := v26 & v28
			v60 := v35 & v37
			v61 := (v59 | v60)
			v62 := v12 & v18
			v63 := (v61 | v62)
			var v77 uint64
			if v63 != 0 {
				v77 = v72
			} else {
				v77 = v76
			}
			v78 := v30 & v32
			var v99 uint64
			if v78 != 0 {
				v99 = v95
			} else {
				v99 = v98
			}
			v102 := v12 & v101
			var v108 uint64
			if v102 != 0 {
				v108 = v104
			} else {
				v108 = v107
			}
			v109 := v12 & v21
			var v118 uint64
			if v109 != 0 {
				v118 = v114
			} else {
				v118 = v117
			}
			var v121 uint64
			if v44 != 0 {
				v121 = v120
			} else {
				v121 = v13
			}
			var v126 uint64
			if v4 != 0 {
				v126 = v122
			} else {
				v126 = v125
			}
			v128 := v63 & v69
			v130 := v63 & v129
			v131 := (v128 | v130)
			var v134 uint64
			if v131 != 0 {
				v134 = v133
			} else {
				v134 = v127
			}
			var v137 uint64
			if v78 != 0 {
				v137 = v136
			} else {
				v137 = v135
			}
			var v140 uint64
			if v102 != 0 {
				v140 = v139
			} else {
				v140 = v138
			}
			var v143 uint64
			if v109 != 0 {
				v143 = v142
			} else {
				v143 = v141
			}
			var v146 uint64
			if v4 != 0 {
				v146 = v145
			} else {
				v146 = v144
			}
			var v147 uint64
			if v0 == 0x9 {
				v147 = 1
			}
			if v147 != 0 {
				break loop
			}
			n0 := v58
			n1 := v77
			n2 := v99
			n3 := v108
			n4 := v118
			n5 := v121
			n6 := v126
			n7 := v134
			n8 := v137
			n9 := v140
			n10 := v143
			n11 := v146
			v0 = n0
			v40 = n1
			v36 = n2
			v31 = n3
			v27 = n4
			v13 = n5
			v7 = n6
			v127 = n7
			v135 = n8
			v138 = n9
			v141 = n10
			v144 = n11
		}
	}
	vals[0] = v0
	vals[40] = v40
	vals[36] = v36
	vals[31] = v31
	vals[27] = v27
	vals[13] = v13
	vals[7] = v7
	vals[127] = v127
	vals[135] = v135
	vals[138] = v138
	vals[141] = v141
	vals[144] = v144
	var v9 uint64
	if v7 == 0x0 {
		v9 = 1
	}
	vals[9] = v9
	var v14 uint64
	if addr := uint64(v13); addr < uint64(len(m0)) {
		v14 = m0[addr] & 0xfffffff
	}
	vals[14] = v14
	v16 := v14 & 0x3
	vals[16] = v16
	var v18 uint64
	if v16 == 0x0 {
		v18 = 1
	}
	vals[18] = v18
	var v21 uint64
	if v16 == 0x1 {
		v21 = 1
	}
	vals[21] = v21
	var v24 uint64
	if v21 != 0 {
		v24 = 0x4
	} else {
		v24 = 0x5
	}
	vals[24] = v24
	var v25 uint64
	if v18 != 0 {
		v25 = 0x7
	} else {
		v25 = v24
	}
	vals[25] = v25
	var v28 uint64
	if v27 == 0x0 {
		v28 = 1
	}
	vals[28] = v28
	var v32 uint64
	if v31 == 0x0 {
		v32 = 1
	}
	vals[32] = v32
	var v37 uint64
	if v36 == 0x0 {
		v37 = 1
	}
	vals[37] = v37
	var v41 uint64
	if v40 == 0x0 {
		v41 = 1
	}
	vals[41] = v41
	var v46 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v46 = m0[addr] & 0x1fff
	}
	vals[46] = v46
	var v47 uint64
	if v46 <= v13 {
		v47 = 1
	}
	vals[47] = v47
	var v49 uint64
	if v47 != 0 {
		v49 = 0x9
	} else {
		v49 = 0x1
	}
	vals[49] = v49
	v65 := (v14 >> 2)
	vals[65] = v65
	v67 := v65 & 0x3f
	vals[67] = v67
	var v69 uint64
	if v67 != 0x0 {
		v69 = 1
	}
	vals[69] = v69
	var v72 uint64
	if v69 != 0 {
		v72 = 0xc
	} else {
		v72 = 0x8
	}
	vals[72] = v72
	var v73 uint64
	if v40 != 0x0 {
		v73 = 1
	}
	vals[73] = v73
	v75 := (v40 - 0x1) & 0xff
	vals[75] = v75
	var v76 uint64
	if v73 != 0 {
		v76 = v75
	} else {
		v76 = v40
	}
	vals[76] = v76
	v81 := (v14 >> 9)
	vals[81] = v81
	v83 := v81 & 0x7
	vals[83] = v83
	v84 := v83
	vals[84] = v84
	v86 := (v84 << 1) & 0xff
	vals[86] = v86
	v87 := (v84 + v86) & 0xff
	vals[87] = v87
	v88 := (0x2 + v87) & 0xff
	vals[88] = v88
	v90 := (v14 >> 8)
	vals[90] = v90
	v92 := v90 & 0x1
	vals[92] = v92
	var v94 uint64
	if v92 != 0 {
		v94 = 0x14
	} else {
		v94 = 0x0
	}
	vals[94] = v94
	v95 := (v88 + v94) & 0xff
	vals[95] = v95
	var v96 uint64
	if v36 != 0x0 {
		v96 = 1
	}
	vals[96] = v96
	v97 := (v36 - 0x1) & 0xff
	vals[97] = v97
	var v98 uint64
	if v96 != 0 {
		v98 = v97
	} else {
		v98 = v36
	}
	vals[98] = v98
	var v101 uint64
	if v16 == 0x2 {
		v101 = 1
	}
	vals[101] = v101
	v104 := (0x3 + v87) & 0xff
	vals[104] = v104
	var v105 uint64
	if v31 != 0x0 {
		v105 = 1
	}
	vals[105] = v105
	v106 := (v31 - 0x1) & 0xff
	vals[106] = v106
	var v107 uint64
	if v105 != 0 {
		v107 = v106
	} else {
		v107 = v31
	}
	vals[107] = v107
	v111 := v67
	vals[111] = v111
	v112 := (v67 >> 2)
	vals[112] = v112
	v113 := (v111 - v112) & 0xff
	vals[113] = v113
	v114 := (0xa + v113) & 0xff
	vals[114] = v114
	var v115 uint64
	if v27 != 0x0 {
		v115 = 1
	}
	vals[115] = v115
	v116 := (v27 - 0x1) & 0xff
	vals[116] = v116
	var v117 uint64
	if v115 != 0 {
		v117 = v116
	} else {
		v117 = v27
	}
	vals[117] = v117
	v120 := (v13 + 0x1) & 0x1fff
	vals[120] = v120
	v122 := (v67 >> 1)
	vals[122] = v122
	var v123 uint64
	if v7 != 0x0 {
		v123 = 1
	}
	vals[123] = v123
	v124 := (v7 - 0x1) & 0xff
	vals[124] = v124
	var v125 uint64
	if v123 != 0 {
		v125 = v124
	} else {
		v125 = v7
	}
	vals[125] = v125
	v129 := ^v69 & 0x1
	vals[129] = v129
	v133 := (v127 + 0x1) & 0xffffff
	vals[133] = v133
	v136 := (v135 + 0x1) & 0xffffff
	vals[136] = v136
	v139 := (v138 + 0x1) & 0xffffff
	vals[139] = v139
	v142 := (v141 + 0x1) & 0xffffff
	vals[142] = v142
	v145 := (v144 + 0x1) & 0xffffff
	vals[145] = v145
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x0
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x0
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x0
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x0
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x0
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[52] = 0x0
		vals[53] = 0x0
		vals[54] = 0x0
		vals[55] = 0x0
		vals[56] = 0x0
		vals[57] = 0x0
		vals[58] = 0x1
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x1
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x1
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x1
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x1
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x1
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x1
		vals[51] = 0x1
		vals[52] = 0x1
		vals[53] = 0x1
		vals[54] = 0x1
		vals[55] = 0x1
		vals[56] = 0x1
		vals[57] = 0x2
		vals[58] = 0x2
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v122
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v145
		vals[146] = v146
		vals[147] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x2
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x2
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x2
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x2
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x2
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x2
		vals[51] = 0x2
		vals[52] = 0x2
		vals[53] = 0x2
		vals[54] = 0x2
		vals[55] = 0x2
		v56 := v11
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x3
		}
		vals[11] = v11
		vals[12] = 0x1
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x3
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x3
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x3
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x3
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x3
		vals[51] = 0x3
		vals[52] = 0x3
		vals[53] = 0x3
		vals[54] = 0x3
		v55 := v25
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		v62 := v18
		vals[62] = v62
		v63 := v62
		vals[63] = v63
		var v77 uint64
		if v63 != 0 {
			v77 = v72
		} else {
			v77 = v76
		}
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		v102 := v101
		vals[102] = v102
		var v108 uint64
		if v102 != 0 {
			v108 = v104
		} else {
			v108 = v107
		}
		vals[108] = v108
		v109 := v21
		vals[109] = v109
		var v118 uint64
		if v109 != 0 {
			v118 = v114
		} else {
			v118 = v117
		}
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		v128 := v63 & v69
		vals[128] = v128
		v130 := v63 & v129
		vals[130] = v130
		v131 := (v128 | v130)
		vals[131] = v131
		var v134 uint64
		if v131 != 0 {
			v134 = v133
		} else {
			v134 = v127
		}
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		var v140 uint64
		if v102 != 0 {
			v140 = v139
		} else {
			v140 = v138
		}
		vals[140] = v140
		var v143 uint64
		if v109 != 0 {
			v143 = v142
		} else {
			v143 = v141
		}
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x4
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x1
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x4
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x4
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x4
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x4
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x4
		vals[51] = 0x4
		vals[52] = 0x4
		vals[53] = 0x4
		v54 := v29
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		v59 := v28
		vals[59] = v59
		vals[60] = 0x0
		v61 := v59
		vals[61] = v61
		vals[62] = 0x0
		v63 := v61
		vals[63] = v63
		var v77 uint64
		if v63 != 0 {
			v77 = v72
		} else {
			v77 = v76
		}
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		v128 := v63 & v69
		vals[128] = v128
		v130 := v63 & v129
		vals[130] = v130
		v131 := (v128 | v130)
		vals[131] = v131
		var v134 uint64
		if v131 != 0 {
			v134 = v133
		} else {
			v134 = v127
		}
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x5
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x5
		}
		vals[29] = v29
		vals[30] = 0x1
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x5
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x5
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x5
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x5
		vals[51] = 0x5
		vals[52] = 0x5
		v53 := v34
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		v78 := v32
		vals[78] = v78
		var v99 uint64
		if v78 != 0 {
			v99 = v95
		} else {
			v99 = v98
		}
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		var v137 uint64
		if v78 != 0 {
			v137 = v136
		} else {
			v137 = v135
		}
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x6
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x6
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x6
		}
		vals[34] = v34
		vals[35] = 0x1
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x6
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x6
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x6
		vals[51] = 0x6
		v52 := v38
		vals[52] = v52
		v53 := v52
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		v60 := v37
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		vals[62] = 0x0
		v63 := v61
		vals[63] = v63
		var v77 uint64
		if v63 != 0 {
			v77 = v72
		} else {
			v77 = v76
		}
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		v128 := v63 & v69
		vals[128] = v128
		v130 := v63 & v129
		vals[130] = v130
		v131 := (v128 | v130)
		vals[131] = v131
		var v134 uint64
		if v131 != 0 {
			v134 = v133
		} else {
			v134 = v127
		}
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x7:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x7
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x7
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x7
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x7
		}
		vals[38] = v38
		vals[39] = 0x1
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x7
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x7
		v51 := v43
		vals[51] = v51
		v52 := v51
		vals[52] = v52
		v53 := v52
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x8:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x8
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x8
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x8
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x8
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x8
		}
		vals[43] = v43
		vals[44] = 0x1
		v50 := v49
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		v52 := v51
		vals[52] = v52
		v53 := v52
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		v55 := v54
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		v58 := v57
		vals[58] = v58
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v120
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x0
	case 0x9:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x9
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[26] = 0x0
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = 0x9
		}
		vals[29] = v29
		vals[30] = 0x0
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = 0x9
		}
		vals[34] = v34
		vals[35] = 0x0
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = 0x9
		}
		vals[38] = v38
		vals[39] = 0x0
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = 0x9
		}
		vals[43] = v43
		vals[44] = 0x0
		vals[50] = 0x9
		vals[51] = 0x9
		vals[52] = 0x9
		vals[53] = 0x9
		vals[54] = 0x9
		vals[55] = 0x9
		vals[56] = 0x9
		vals[57] = 0x9
		vals[58] = 0x9
		vals[59] = 0x0
		vals[60] = 0x0
		vals[61] = 0x0
		vals[62] = 0x0
		vals[63] = 0x0
		v77 := v76
		vals[77] = v77
		vals[78] = 0x0
		v99 := v98
		vals[99] = v99
		vals[102] = 0x0
		v108 := v107
		vals[108] = v108
		vals[109] = 0x0
		v118 := v117
		vals[118] = v118
		v121 := v13
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		vals[128] = 0x0
		vals[130] = 0x0
		vals[131] = 0x0
		v134 := v127
		vals[134] = v134
		v137 := v135
		vals[137] = v137
		v140 := v138
		vals[140] = v140
		v143 := v141
		vals[143] = v143
		v146 := v144
		vals[146] = v146
		vals[147] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = v0
		}
		vals[11] = v11
		var v12 uint64
		if v0 == 0x3 {
			v12 = 1
		}
		vals[12] = v12
		var v26 uint64
		if v0 == 0x4 {
			v26 = 1
		}
		vals[26] = v26
		var v29 uint64
		if v28 != 0 {
			v29 = 0x7
		} else {
			v29 = v0
		}
		vals[29] = v29
		var v30 uint64
		if v0 == 0x5 {
			v30 = 1
		}
		vals[30] = v30
		var v34 uint64
		if v32 != 0 {
			v34 = 0x6
		} else {
			v34 = v0
		}
		vals[34] = v34
		var v35 uint64
		if v0 == 0x6 {
			v35 = 1
		}
		vals[35] = v35
		var v38 uint64
		if v37 != 0 {
			v38 = 0x7
		} else {
			v38 = v0
		}
		vals[38] = v38
		var v39 uint64
		if v0 == 0x7 {
			v39 = 1
		}
		vals[39] = v39
		var v43 uint64
		if v41 != 0 {
			v43 = 0x8
		} else {
			v43 = v0
		}
		vals[43] = v43
		var v44 uint64
		if v0 == 0x8 {
			v44 = 1
		}
		vals[44] = v44
		var v50 uint64
		if v44 != 0 {
			v50 = v49
		} else {
			v50 = v0
		}
		vals[50] = v50
		var v51 uint64
		if v39 != 0 {
			v51 = v43
		} else {
			v51 = v50
		}
		vals[51] = v51
		var v52 uint64
		if v35 != 0 {
			v52 = v38
		} else {
			v52 = v51
		}
		vals[52] = v52
		var v53 uint64
		if v30 != 0 {
			v53 = v34
		} else {
			v53 = v52
		}
		vals[53] = v53
		var v54 uint64
		if v26 != 0 {
			v54 = v29
		} else {
			v54 = v53
		}
		vals[54] = v54
		var v55 uint64
		if v12 != 0 {
			v55 = v25
		} else {
			v55 = v54
		}
		vals[55] = v55
		var v56 uint64
		if v6 != 0 {
			v56 = v11
		} else {
			v56 = v55
		}
		vals[56] = v56
		var v57 uint64
		if v4 != 0 {
			v57 = 0x2
		} else {
			v57 = v56
		}
		vals[57] = v57
		var v58 uint64
		if v2 != 0 {
			v58 = 0x1
		} else {
			v58 = v57
		}
		vals[58] = v58
		v59 := v26 & v28
		vals[59] = v59
		v60 := v35 & v37
		vals[60] = v60
		v61 := (v59 | v60)
		vals[61] = v61
		v62 := v12 & v18
		vals[62] = v62
		v63 := (v61 | v62)
		vals[63] = v63
		var v77 uint64
		if v63 != 0 {
			v77 = v72
		} else {
			v77 = v76
		}
		vals[77] = v77
		v78 := v30 & v32
		vals[78] = v78
		var v99 uint64
		if v78 != 0 {
			v99 = v95
		} else {
			v99 = v98
		}
		vals[99] = v99
		v102 := v12 & v101
		vals[102] = v102
		var v108 uint64
		if v102 != 0 {
			v108 = v104
		} else {
			v108 = v107
		}
		vals[108] = v108
		v109 := v12 & v21
		vals[109] = v109
		var v118 uint64
		if v109 != 0 {
			v118 = v114
		} else {
			v118 = v117
		}
		vals[118] = v118
		var v121 uint64
		if v44 != 0 {
			v121 = v120
		} else {
			v121 = v13
		}
		vals[121] = v121
		var v126 uint64
		if v4 != 0 {
			v126 = v122
		} else {
			v126 = v125
		}
		vals[126] = v126
		v128 := v63 & v69
		vals[128] = v128
		v130 := v63 & v129
		vals[130] = v130
		v131 := (v128 | v130)
		vals[131] = v131
		var v134 uint64
		if v131 != 0 {
			v134 = v133
		} else {
			v134 = v127
		}
		vals[134] = v134
		var v137 uint64
		if v78 != 0 {
			v137 = v136
		} else {
			v137 = v135
		}
		vals[137] = v137
		var v140 uint64
		if v102 != 0 {
			v140 = v139
		} else {
			v140 = v138
		}
		vals[140] = v140
		var v143 uint64
		if v109 != 0 {
			v143 = v142
		} else {
			v143 = v141
		}
		vals[143] = v143
		var v146 uint64
		if v4 != 0 {
			v146 = v145
		} else {
			v146 = v144
		}
		vals[146] = v146
		var v147 uint64
		if v0 == 0x9 {
			v147 = 1
		}
		vals[147] = v147
	}
	done := vals[147] != 0
	l0 := vals[58] & 0xf
	l1 := vals[77] & 0xff
	l2 := vals[99] & 0xff
	l3 := vals[108] & 0xff
	l4 := vals[118] & 0xff
	l5 := vals[121] & 0x1fff
	l6 := vals[126] & 0xff
	l7 := vals[134] & 0xffffff
	l8 := vals[137] & 0xffffff
	l9 := vals[140] & 0xffffff
	l10 := vals[143] & 0xffffff
	l11 := vals[146] & 0xffffff
	vals[0] = l0
	vals[40] = l1
	vals[36] = l2
	vals[31] = l3
	vals[27] = l4
	vals[13] = l5
	vals[7] = l6
	vals[127] = l7
	vals[135] = l8
	vals[138] = l9
	vals[141] = l10
	vals[144] = l11
	return cycles + 1, done
}

func step_h264_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[187]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v46 := vals[46]
	v48 := vals[48]
	v67 := vals[67]
	v72 := vals[72]
	v73 := vals[73]
	v94 := vals[94]
	v97 := vals[97]
	v98 := vals[98]
	v106 := vals[106]
	v109 := vals[109]
	v110 := vals[110]
	v119 := vals[119]
	v122 := vals[122]
	v123 := vals[123]
	v127 := vals[127]
	v130 := vals[130]
	v135 := vals[135]
	v140 := vals[140]
	v145 := vals[145]
	v150 := vals[150]
	v155 := vals[155]
	v159 := vals[159]
	v164 := vals[164]
	v169 := vals[169]
	v173 := vals[173]
	v178 := vals[178]
	v183 := vals[183]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v185 := (v183 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v185
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x1
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x1:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			v124 := (v55 >> 1)
			v125 := (v123 + v124) & 0xffffff
			v128 := (v127 + 0x1) & 0xffffff
			v181 := (v178 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v125
			v129 := v128
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v181
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x2
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x2:
			v176 := (v173 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v176
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x3
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x3:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			var v57 uint64
			if v55 != 0x0 {
				v57 = 1
			}
			v58 := ^v57 & 0x1
			v61 := (v48 + 0x8) & 0xffffff
			v64 := (v48 + 0xc) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v76 := (v10 >> 9)
			v78 := v76 & 0x7
			v80 := v78
			v82 := (v80 << 1) & 0xff
			v83 := (v80 + v82) & 0xff
			var v100 uint64
			if v12 == 0x2 {
				v100 = 1
			}
			v103 := (0x3 + v83) & 0xff
			v104 := (v98 + v103) & 0xffffff
			v107 := (v106 + 0x1) & 0xffffff
			v113 := v55
			v114 := (v55 >> 2)
			v115 := (v113 - v114) & 0xff
			v116 := (0xa + v115) & 0xff
			v117 := (v110 + v116) & 0xffffff
			v120 := (v119 + 0x1) & 0xffffff
			v162 := (v159 + 0x1) & 0xffffff
			v167 := (v164 + 0x1) & 0xffffff
			v171 := (v169 + 0x1) & 0xffffff
			v39 := v21
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v9
			v50 := v14
			v51 := v50
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v101 := v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			var v146 uint64
			if v42 == 0x7 {
				v146 = 1
			}
			v149 := v145
			v154 := v150
			v158 := v155
			var v160 uint64
			if v42 == 0x5 {
				v160 = 1
			}
			v161 := v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v42 == 0x4 {
				v165 = 1
			}
			v166 := v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := v146
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			v177 := v173
			v182 := v178
			v186 := v183
			n0 := v42
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = n0
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x4:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			var v57 uint64
			if v55 != 0x0 {
				v57 = 1
			}
			v58 := ^v57 & 0x1
			v61 := (v48 + 0x8) & 0xffffff
			v64 := (v48 + 0xc) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v157 := (v155 + 0x1) & 0xffffff
			v45 := v9
			v59 := v58
			v62 := v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v157
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x7
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x5:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v76 := (v10 >> 9)
			v78 := v76 & 0x7
			v80 := v78
			v82 := (v80 << 1) & 0xff
			v83 := (v80 + v82) & 0xff
			v84 := (0x2 + v83) & 0xff
			v86 := (v10 >> 8)
			v88 := v86 & 0x1
			var v90 uint64
			if v88 != 0 {
				v90 = 0x14
			} else {
				v90 = 0x0
			}
			v91 := (v84 + v90) & 0xff
			v92 := (v73 + v91) & 0xffffff
			v95 := (v94 + 0x1) & 0xffffff
			v153 := (v150 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v92
			v96 := v95
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v145
			v154 := v153
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x6
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x6:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			var v57 uint64
			if v55 != 0x0 {
				v57 = 1
			}
			v58 := ^v57 & 0x1
			v61 := (v48 + 0x8) & 0xffffff
			v64 := (v48 + 0xc) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v148 := (v145 + 0x1) & 0xffffff
			v45 := v9
			v59 := v58
			v62 := v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v140
			v149 := v148
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x7
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x7:
			v143 := (v140 + 0x1) & 0xffffff
			v45 := v9
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			v134 := v130
			v139 := v135
			v144 := v143
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = 0x8
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x8:
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v133 := (v130 + 0x1) & 0xffffff
			v138 := (v135 + 0x1) & 0xffffff
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v44
			v65 := v48
			v66 := v65
			v71 := v67
			v93 := v73
			v96 := v94
			v105 := v98
			v108 := v106
			v118 := v110
			v121 := v119
			v126 := v123
			v129 := v127
			var v131 uint64
			if v42 == 0x1 {
				v131 = 1
			}
			v132 := v131
			var v134 uint64
			if v132 != 0 {
				v134 = v133
			} else {
				v134 = v130
			}
			var v136 uint64
			if v42 == 0x9 {
				v136 = 1
			}
			v137 := v136
			var v139 uint64
			if v137 != 0 {
				v139 = v138
			} else {
				v139 = v135
			}
			v144 := v140
			v149 := v145
			v154 := v150
			v158 := v155
			v163 := v159
			v168 := v164
			v172 := v169
			v177 := v173
			v182 := v178
			v186 := v183
			n0 := v42
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = n0
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		case 0x9:
			break loop
		default:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v53 := (v10 >> 2)
			v55 := v53 & 0x3f
			var v57 uint64
			if v55 != 0x0 {
				v57 = 1
			}
			v58 := ^v57 & 0x1
			v61 := (v48 + 0x8) & 0xffffff
			v64 := (v48 + 0xc) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v76 := (v10 >> 9)
			v78 := v76 & 0x7
			v80 := v78
			v82 := (v80 << 1) & 0xff
			v83 := (v80 + v82) & 0xff
			v84 := (0x2 + v83) & 0xff
			v86 := (v10 >> 8)
			v88 := v86 & 0x1
			var v90 uint64
			if v88 != 0 {
				v90 = 0x14
			} else {
				v90 = 0x0
			}
			v91 := (v84 + v90) & 0xff
			v92 := (v73 + v91) & 0xffffff
			v95 := (v94 + 0x1) & 0xffffff
			var v100 uint64
			if v12 == 0x2 {
				v100 = 1
			}
			v103 := (0x3 + v83) & 0xff
			v104 := (v98 + v103) & 0xffffff
			v107 := (v106 + 0x1) & 0xffffff
			v113 := v55
			v114 := (v55 >> 2)
			v115 := (v113 - v114) & 0xff
			v116 := (0xa + v115) & 0xff
			v117 := (v110 + v116) & 0xffffff
			v120 := (v119 + 0x1) & 0xffffff
			v124 := (v55 >> 1)
			v125 := (v123 + v124) & 0xffffff
			v128 := (v127 + 0x1) & 0xffffff
			v133 := (v130 + 0x1) & 0xffffff
			v138 := (v135 + 0x1) & 0xffffff
			v143 := (v140 + 0x1) & 0xffffff
			v148 := (v145 + 0x1) & 0xffffff
			v153 := (v150 + 0x1) & 0xffffff
			v157 := (v155 + 0x1) & 0xffffff
			v162 := (v159 + 0x1) & 0xffffff
			v167 := (v164 + 0x1) & 0xffffff
			v171 := (v169 + 0x1) & 0xffffff
			v176 := (v173 + 0x1) & 0xffffff
			v181 := (v178 + 0x1) & 0xffffff
			v185 := (v183 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v23 uint64
			if v0 == 0x5 {
				v23 = 1
			}
			var v25 uint64
			if v0 == 0x6 {
				v25 = 1
			}
			var v26 uint64
			if v0 == 0x7 {
				v26 = 1
			}
			var v28 uint64
			if v0 == 0x8 {
				v28 = 1
			}
			var v34 uint64
			if v28 != 0 {
				v34 = v33
			} else {
				v34 = v0
			}
			var v35 uint64
			if v26 != 0 {
				v35 = 0x8
			} else {
				v35 = v34
			}
			var v36 uint64
			if v25 != 0 {
				v36 = 0x7
			} else {
				v36 = v35
			}
			var v37 uint64
			if v23 != 0 {
				v37 = 0x6
			} else {
				v37 = v36
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x7
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v21
			} else {
				v39 = v38
			}
			var v40 uint64
			if v6 != 0 {
				v40 = 0x3
			} else {
				v40 = v39
			}
			var v41 uint64
			if v4 != 0 {
				v41 = 0x2
			} else {
				v41 = v40
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x1
			} else {
				v42 = v41
			}
			var v45 uint64
			if v28 != 0 {
				v45 = v44
			} else {
				v45 = v9
			}
			v49 := (v22 | v25)
			v50 := v8 & v14
			v51 := (v49 | v50)
			v59 := v51 & v58
			v62 := v51 & v57
			var v65 uint64
			if v62 != 0 {
				v65 = v64
			} else {
				v65 = v48
			}
			var v66 uint64
			if v59 != 0 {
				v66 = v61
			} else {
				v66 = v65
			}
			v68 := (v62 | v59)
			var v71 uint64
			if v68 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v93 uint64
			if v23 != 0 {
				v93 = v92
			} else {
				v93 = v73
			}
			var v96 uint64
			if v23 != 0 {
				v96 = v95
			} else {
				v96 = v94
			}
			v101 := v8 & v100
			var v105 uint64
			if v101 != 0 {
				v105 = v104
			} else {
				v105 = v98
			}
			var v108 uint64
			if v101 != 0 {
				v108 = v107
			} else {
				v108 = v106
			}
			v111 := v8 & v17
			var v118 uint64
			if v111 != 0 {
				v118 = v117
			} else {
				v118 = v110
			}
			var v121 uint64
			if v111 != 0 {
				v121 = v120
			} else {
				v121 = v119
			}
			var v126 uint64
			if v4 != 0 {
				v126 = v125
			} else {
				v126 = v123
			}
			var v129 uint64
			if v4 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			var v131 uint64
			if v42 == 0x1 {
				v131 = 1
			}
			v132 := v28 & v131
			var v134 uint64
			if v132 != 0 {
				v134 = v133
			} else {
				v134 = v130
			}
			var v136 uint64
			if v42 == 0x9 {
				v136 = 1
			}
			v137 := v28 & v136
			var v139 uint64
			if v137 != 0 {
				v139 = v138
			} else {
				v139 = v135
			}
			var v141 uint64
			if v42 == 0x8 {
				v141 = 1
			}
			v142 := v26 & v141
			var v144 uint64
			if v142 != 0 {
				v144 = v143
			} else {
				v144 = v140
			}
			var v146 uint64
			if v42 == 0x7 {
				v146 = 1
			}
			v147 := v25 & v146
			var v149 uint64
			if v147 != 0 {
				v149 = v148
			} else {
				v149 = v145
			}
			var v151 uint64
			if v42 == 0x6 {
				v151 = 1
			}
			v152 := v23 & v151
			var v154 uint64
			if v152 != 0 {
				v154 = v153
			} else {
				v154 = v150
			}
			v156 := v22 & v146
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v155
			}
			var v160 uint64
			if v42 == 0x5 {
				v160 = 1
			}
			v161 := v8 & v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v42 == 0x4 {
				v165 = 1
			}
			v166 := v8 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := v8 & v146
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			var v174 uint64
			if v42 == 0x3 {
				v174 = 1
			}
			v175 := v6 & v174
			var v177 uint64
			if v175 != 0 {
				v177 = v176
			} else {
				v177 = v173
			}
			var v179 uint64
			if v42 == 0x2 {
				v179 = 1
			}
			v180 := v4 & v179
			var v182 uint64
			if v180 != 0 {
				v182 = v181
			} else {
				v182 = v178
			}
			v184 := v2 & v131
			var v186 uint64
			if v184 != 0 {
				v186 = v185
			} else {
				v186 = v183
			}
			var v187 uint64
			if v0 == 0x9 {
				v187 = 1
			}
			if v187 != 0 {
				break loop
			}
			n0 := v42
			n1 := v45
			n3 := v66
			n4 := v71
			n6 := v93
			n7 := v96
			n9 := v105
			n10 := v108
			n12 := v118
			n13 := v121
			n15 := v126
			n16 := v129
			n17 := v134
			n18 := v139
			n19 := v144
			n20 := v149
			n21 := v154
			n22 := v158
			n23 := v163
			n24 := v168
			n25 := v172
			n26 := v177
			n27 := v182
			n28 := v186
			v0 = n0
			v9 = n1
			v46 = 0x0
			v48 = n3
			v67 = n4
			v72 = 0x0
			v73 = n6
			v94 = n7
			v97 = 0x0
			v98 = n9
			v106 = n10
			v109 = 0x0
			v110 = n12
			v119 = n13
			v122 = 0x0
			v123 = n15
			v127 = n16
			v130 = n17
			v135 = n18
			v140 = n19
			v145 = n20
			v150 = n21
			v155 = n22
			v159 = n23
			v164 = n24
			v169 = n25
			v173 = n26
			v178 = n27
			v183 = n28
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[46] = v46
	vals[48] = v48
	vals[67] = v67
	vals[72] = v72
	vals[73] = v73
	vals[94] = v94
	vals[97] = v97
	vals[98] = v98
	vals[106] = v106
	vals[109] = v109
	vals[110] = v110
	vals[119] = v119
	vals[122] = v122
	vals[123] = v123
	vals[127] = v127
	vals[130] = v130
	vals[135] = v135
	vals[140] = v140
	vals[145] = v145
	vals[150] = v150
	vals[155] = v155
	vals[159] = v159
	vals[164] = v164
	vals[169] = v169
	vals[173] = v173
	vals[178] = v178
	vals[183] = v183
	var v10 uint64
	if addr := uint64(v9); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0xfffffff
	}
	vals[10] = v10
	v12 := v10 & 0x3
	vals[12] = v12
	var v14 uint64
	if v12 == 0x0 {
		v14 = 1
	}
	vals[14] = v14
	var v17 uint64
	if v12 == 0x1 {
		v17 = 1
	}
	vals[17] = v17
	var v20 uint64
	if v17 != 0 {
		v20 = 0x4
	} else {
		v20 = 0x5
	}
	vals[20] = v20
	var v21 uint64
	if v14 != 0 {
		v21 = 0x7
	} else {
		v21 = v20
	}
	vals[21] = v21
	var v30 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v30 = m0[addr] & 0x1fff
	}
	vals[30] = v30
	var v31 uint64
	if v30 <= v9 {
		v31 = 1
	}
	vals[31] = v31
	var v33 uint64
	if v31 != 0 {
		v33 = 0x9
	} else {
		v33 = 0x1
	}
	vals[33] = v33
	v44 := (v9 + 0x1) & 0x1fff
	vals[44] = v44
	v53 := (v10 >> 2)
	vals[53] = v53
	v55 := v53 & 0x3f
	vals[55] = v55
	var v57 uint64
	if v55 != 0x0 {
		v57 = 1
	}
	vals[57] = v57
	v58 := ^v57 & 0x1
	vals[58] = v58
	v61 := (v48 + 0x8) & 0xffffff
	vals[61] = v61
	v64 := (v48 + 0xc) & 0xffffff
	vals[64] = v64
	v70 := (v67 + 0x1) & 0xffffff
	vals[70] = v70
	v76 := (v10 >> 9)
	vals[76] = v76
	v78 := v76 & 0x7
	vals[78] = v78
	v80 := v78
	vals[80] = v80
	v82 := (v80 << 1) & 0xff
	vals[82] = v82
	v83 := (v80 + v82) & 0xff
	vals[83] = v83
	v84 := (0x2 + v83) & 0xff
	vals[84] = v84
	v86 := (v10 >> 8)
	vals[86] = v86
	v88 := v86 & 0x1
	vals[88] = v88
	var v90 uint64
	if v88 != 0 {
		v90 = 0x14
	} else {
		v90 = 0x0
	}
	vals[90] = v90
	v91 := (v84 + v90) & 0xff
	vals[91] = v91
	v92 := (v73 + v91) & 0xffffff
	vals[92] = v92
	v95 := (v94 + 0x1) & 0xffffff
	vals[95] = v95
	var v100 uint64
	if v12 == 0x2 {
		v100 = 1
	}
	vals[100] = v100
	v103 := (0x3 + v83) & 0xff
	vals[103] = v103
	v104 := (v98 + v103) & 0xffffff
	vals[104] = v104
	v107 := (v106 + 0x1) & 0xffffff
	vals[107] = v107
	v113 := v55
	vals[113] = v113
	v114 := (v55 >> 2)
	vals[114] = v114
	v115 := (v113 - v114) & 0xff
	vals[115] = v115
	v116 := (0xa + v115) & 0xff
	vals[116] = v116
	v117 := (v110 + v116) & 0xffffff
	vals[117] = v117
	v120 := (v119 + 0x1) & 0xffffff
	vals[120] = v120
	v124 := (v55 >> 1)
	vals[124] = v124
	v125 := (v123 + v124) & 0xffffff
	vals[125] = v125
	v128 := (v127 + 0x1) & 0xffffff
	vals[128] = v128
	v133 := (v130 + 0x1) & 0xffffff
	vals[133] = v133
	v138 := (v135 + 0x1) & 0xffffff
	vals[138] = v138
	v143 := (v140 + 0x1) & 0xffffff
	vals[143] = v143
	v148 := (v145 + 0x1) & 0xffffff
	vals[148] = v148
	v153 := (v150 + 0x1) & 0xffffff
	vals[153] = v153
	v157 := (v155 + 0x1) & 0xffffff
	vals[157] = v157
	v162 := (v159 + 0x1) & 0xffffff
	vals[162] = v162
	v167 := (v164 + 0x1) & 0xffffff
	vals[167] = v167
	v171 := (v169 + 0x1) & 0xffffff
	vals[171] = v171
	v176 := (v173 + 0x1) & 0xffffff
	vals[176] = v176
	v181 := (v178 + 0x1) & 0xffffff
	vals[181] = v181
	v185 := (v183 + 0x1) & 0xffffff
	vals[185] = v185
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x0
		vals[37] = 0x0
		vals[38] = 0x0
		vals[39] = 0x0
		vals[40] = 0x0
		vals[41] = 0x0
		vals[42] = 0x1
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x1
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x1
		v186 := v185
		vals[186] = v186
		vals[187] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x1
		vals[35] = 0x1
		vals[36] = 0x1
		vals[37] = 0x1
		vals[38] = 0x1
		vals[39] = 0x1
		vals[40] = 0x1
		vals[41] = 0x2
		vals[42] = 0x2
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v125
		vals[126] = v126
		v129 := v128
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x1
		vals[180] = 0x1
		v182 := v181
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x2
		vals[35] = 0x2
		vals[36] = 0x2
		vals[37] = 0x2
		vals[38] = 0x2
		vals[39] = 0x2
		vals[40] = 0x3
		vals[41] = 0x3
		vals[42] = 0x3
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x1
		vals[175] = 0x1
		v177 := v176
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x3
		vals[35] = 0x3
		vals[36] = 0x3
		vals[37] = 0x3
		vals[38] = 0x3
		v39 := v21
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		v50 := v14
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		v59 := v51 & v58
		vals[59] = v59
		v62 := v51 & v57
		vals[62] = v62
		var v65 uint64
		if v62 != 0 {
			v65 = v64
		} else {
			v65 = v48
		}
		vals[65] = v65
		var v66 uint64
		if v59 != 0 {
			v66 = v61
		} else {
			v66 = v65
		}
		vals[66] = v66
		v68 := (v62 | v59)
		vals[68] = v68
		var v71 uint64
		if v68 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		v101 := v100
		vals[101] = v101
		var v105 uint64
		if v101 != 0 {
			v105 = v104
		} else {
			v105 = v98
		}
		vals[105] = v105
		var v108 uint64
		if v101 != 0 {
			v108 = v107
		} else {
			v108 = v106
		}
		vals[108] = v108
		v111 := v17
		vals[111] = v111
		var v118 uint64
		if v111 != 0 {
			v118 = v117
		} else {
			v118 = v110
		}
		vals[118] = v118
		var v121 uint64
		if v111 != 0 {
			v121 = v120
		} else {
			v121 = v119
		}
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		var v131 uint64
		if v42 == 0x1 {
			v131 = 1
		}
		vals[131] = v131
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		var v136 uint64
		if v42 == 0x9 {
			v136 = 1
		}
		vals[136] = v136
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		var v141 uint64
		if v42 == 0x8 {
			v141 = 1
		}
		vals[141] = v141
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		var v146 uint64
		if v42 == 0x7 {
			v146 = 1
		}
		vals[146] = v146
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		var v151 uint64
		if v42 == 0x6 {
			v151 = 1
		}
		vals[151] = v151
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		var v160 uint64
		if v42 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		v161 := v160
		vals[161] = v161
		var v163 uint64
		if v161 != 0 {
			v163 = v162
		} else {
			v163 = v159
		}
		vals[163] = v163
		var v165 uint64
		if v42 == 0x4 {
			v165 = 1
		}
		vals[165] = v165
		v166 := v165
		vals[166] = v166
		var v168 uint64
		if v166 != 0 {
			v168 = v167
		} else {
			v168 = v164
		}
		vals[168] = v168
		v170 := v146
		vals[170] = v170
		var v172 uint64
		if v170 != 0 {
			v172 = v171
		} else {
			v172 = v169
		}
		vals[172] = v172
		var v174 uint64
		if v42 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		var v179 uint64
		if v42 == 0x2 {
			v179 = 1
		}
		vals[179] = v179
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x1
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x4
		vals[35] = 0x4
		vals[36] = 0x4
		vals[37] = 0x4
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[49] = 0x1
		vals[50] = 0x0
		vals[51] = 0x1
		v59 := v58
		vals[59] = v59
		v62 := v57
		vals[62] = v62
		var v65 uint64
		if v62 != 0 {
			v65 = v64
		} else {
			v65 = v48
		}
		vals[65] = v65
		var v66 uint64
		if v59 != 0 {
			v66 = v61
		} else {
			v66 = v65
		}
		vals[66] = v66
		v68 := (v62 | v59)
		vals[68] = v68
		var v71 uint64
		if v68 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x1
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x1
		v158 := v157
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x5
		vals[35] = 0x5
		vals[36] = 0x5
		vals[37] = 0x6
		vals[38] = 0x6
		vals[39] = 0x6
		vals[40] = 0x6
		vals[41] = 0x6
		vals[42] = 0x6
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v92
		vals[93] = v93
		v96 := v95
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x1
		vals[152] = 0x1
		v154 := v153
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x1
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x7
		vals[37] = 0x7
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[49] = 0x1
		vals[50] = 0x0
		vals[51] = 0x1
		v59 := v58
		vals[59] = v59
		v62 := v57
		vals[62] = v62
		var v65 uint64
		if v62 != 0 {
			v65 = v64
		} else {
			v65 = v48
		}
		vals[65] = v65
		var v66 uint64
		if v59 != 0 {
			v66 = v61
		} else {
			v66 = v65
		}
		vals[66] = v66
		v68 := (v62 | v59)
		vals[68] = v68
		var v71 uint64
		if v68 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x1
		vals[147] = 0x1
		v149 := v148
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x7:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x1
		vals[28] = 0x0
		vals[34] = 0x7
		vals[35] = 0x8
		vals[36] = 0x8
		vals[37] = 0x8
		vals[38] = 0x8
		vals[39] = 0x8
		vals[40] = 0x8
		vals[41] = 0x8
		vals[42] = 0x8
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x0
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x1
		vals[142] = 0x1
		v144 := v143
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x8:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x1
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v44
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		var v131 uint64
		if v42 == 0x1 {
			v131 = 1
		}
		vals[131] = v131
		v132 := v131
		vals[132] = v132
		var v134 uint64
		if v132 != 0 {
			v134 = v133
		} else {
			v134 = v130
		}
		vals[134] = v134
		var v136 uint64
		if v42 == 0x9 {
			v136 = 1
		}
		vals[136] = v136
		v137 := v136
		vals[137] = v137
		var v139 uint64
		if v137 != 0 {
			v139 = v138
		} else {
			v139 = v135
		}
		vals[139] = v139
		var v141 uint64
		if v42 == 0x8 {
			v141 = 1
		}
		vals[141] = v141
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		var v146 uint64
		if v42 == 0x7 {
			v146 = 1
		}
		vals[146] = v146
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		var v151 uint64
		if v42 == 0x6 {
			v151 = 1
		}
		vals[151] = v151
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		var v160 uint64
		if v42 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		var v165 uint64
		if v42 == 0x4 {
			v165 = 1
		}
		vals[165] = v165
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		var v174 uint64
		if v42 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		var v179 uint64
		if v42 == 0x2 {
			v179 = 1
		}
		vals[179] = v179
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x0
	case 0x9:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x9
		vals[35] = 0x9
		vals[36] = 0x9
		vals[37] = 0x9
		vals[38] = 0x9
		vals[39] = 0x9
		vals[40] = 0x9
		vals[41] = 0x9
		vals[42] = 0x9
		v45 := v9
		vals[45] = v45
		vals[49] = 0x0
		vals[50] = 0x0
		vals[51] = 0x0
		vals[59] = 0x0
		vals[62] = 0x0
		v65 := v48
		vals[65] = v65
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		v71 := v67
		vals[71] = v71
		v93 := v73
		vals[93] = v93
		v96 := v94
		vals[96] = v96
		vals[101] = 0x0
		v105 := v98
		vals[105] = v105
		v108 := v106
		vals[108] = v108
		vals[111] = 0x0
		v118 := v110
		vals[118] = v118
		v121 := v119
		vals[121] = v121
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		vals[131] = 0x0
		vals[132] = 0x0
		v134 := v130
		vals[134] = v134
		vals[136] = 0x1
		vals[137] = 0x0
		v139 := v135
		vals[139] = v139
		vals[141] = 0x0
		vals[142] = 0x0
		v144 := v140
		vals[144] = v144
		vals[146] = 0x0
		vals[147] = 0x0
		v149 := v145
		vals[149] = v149
		vals[151] = 0x0
		vals[152] = 0x0
		v154 := v150
		vals[154] = v154
		vals[156] = 0x0
		v158 := v155
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		vals[174] = 0x0
		vals[175] = 0x0
		v177 := v173
		vals[177] = v177
		vals[179] = 0x0
		vals[180] = 0x0
		v182 := v178
		vals[182] = v182
		vals[184] = 0x0
		v186 := v183
		vals[186] = v186
		vals[187] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v22 uint64
		if v0 == 0x4 {
			v22 = 1
		}
		vals[22] = v22
		var v23 uint64
		if v0 == 0x5 {
			v23 = 1
		}
		vals[23] = v23
		var v25 uint64
		if v0 == 0x6 {
			v25 = 1
		}
		vals[25] = v25
		var v26 uint64
		if v0 == 0x7 {
			v26 = 1
		}
		vals[26] = v26
		var v28 uint64
		if v0 == 0x8 {
			v28 = 1
		}
		vals[28] = v28
		var v34 uint64
		if v28 != 0 {
			v34 = v33
		} else {
			v34 = v0
		}
		vals[34] = v34
		var v35 uint64
		if v26 != 0 {
			v35 = 0x8
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v25 != 0 {
			v36 = 0x7
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v37 uint64
		if v23 != 0 {
			v37 = 0x6
		} else {
			v37 = v36
		}
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x7
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v39 uint64
		if v8 != 0 {
			v39 = v21
		} else {
			v39 = v38
		}
		vals[39] = v39
		var v40 uint64
		if v6 != 0 {
			v40 = 0x3
		} else {
			v40 = v39
		}
		vals[40] = v40
		var v41 uint64
		if v4 != 0 {
			v41 = 0x2
		} else {
			v41 = v40
		}
		vals[41] = v41
		var v42 uint64
		if v2 != 0 {
			v42 = 0x1
		} else {
			v42 = v41
		}
		vals[42] = v42
		var v45 uint64
		if v28 != 0 {
			v45 = v44
		} else {
			v45 = v9
		}
		vals[45] = v45
		v49 := (v22 | v25)
		vals[49] = v49
		v50 := v8 & v14
		vals[50] = v50
		v51 := (v49 | v50)
		vals[51] = v51
		v59 := v51 & v58
		vals[59] = v59
		v62 := v51 & v57
		vals[62] = v62
		var v65 uint64
		if v62 != 0 {
			v65 = v64
		} else {
			v65 = v48
		}
		vals[65] = v65
		var v66 uint64
		if v59 != 0 {
			v66 = v61
		} else {
			v66 = v65
		}
		vals[66] = v66
		v68 := (v62 | v59)
		vals[68] = v68
		var v71 uint64
		if v68 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		var v93 uint64
		if v23 != 0 {
			v93 = v92
		} else {
			v93 = v73
		}
		vals[93] = v93
		var v96 uint64
		if v23 != 0 {
			v96 = v95
		} else {
			v96 = v94
		}
		vals[96] = v96
		v101 := v8 & v100
		vals[101] = v101
		var v105 uint64
		if v101 != 0 {
			v105 = v104
		} else {
			v105 = v98
		}
		vals[105] = v105
		var v108 uint64
		if v101 != 0 {
			v108 = v107
		} else {
			v108 = v106
		}
		vals[108] = v108
		v111 := v8 & v17
		vals[111] = v111
		var v118 uint64
		if v111 != 0 {
			v118 = v117
		} else {
			v118 = v110
		}
		vals[118] = v118
		var v121 uint64
		if v111 != 0 {
			v121 = v120
		} else {
			v121 = v119
		}
		vals[121] = v121
		var v126 uint64
		if v4 != 0 {
			v126 = v125
		} else {
			v126 = v123
		}
		vals[126] = v126
		var v129 uint64
		if v4 != 0 {
			v129 = v128
		} else {
			v129 = v127
		}
		vals[129] = v129
		var v131 uint64
		if v42 == 0x1 {
			v131 = 1
		}
		vals[131] = v131
		v132 := v28 & v131
		vals[132] = v132
		var v134 uint64
		if v132 != 0 {
			v134 = v133
		} else {
			v134 = v130
		}
		vals[134] = v134
		var v136 uint64
		if v42 == 0x9 {
			v136 = 1
		}
		vals[136] = v136
		v137 := v28 & v136
		vals[137] = v137
		var v139 uint64
		if v137 != 0 {
			v139 = v138
		} else {
			v139 = v135
		}
		vals[139] = v139
		var v141 uint64
		if v42 == 0x8 {
			v141 = 1
		}
		vals[141] = v141
		v142 := v26 & v141
		vals[142] = v142
		var v144 uint64
		if v142 != 0 {
			v144 = v143
		} else {
			v144 = v140
		}
		vals[144] = v144
		var v146 uint64
		if v42 == 0x7 {
			v146 = 1
		}
		vals[146] = v146
		v147 := v25 & v146
		vals[147] = v147
		var v149 uint64
		if v147 != 0 {
			v149 = v148
		} else {
			v149 = v145
		}
		vals[149] = v149
		var v151 uint64
		if v42 == 0x6 {
			v151 = 1
		}
		vals[151] = v151
		v152 := v23 & v151
		vals[152] = v152
		var v154 uint64
		if v152 != 0 {
			v154 = v153
		} else {
			v154 = v150
		}
		vals[154] = v154
		v156 := v22 & v146
		vals[156] = v156
		var v158 uint64
		if v156 != 0 {
			v158 = v157
		} else {
			v158 = v155
		}
		vals[158] = v158
		var v160 uint64
		if v42 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		v161 := v8 & v160
		vals[161] = v161
		var v163 uint64
		if v161 != 0 {
			v163 = v162
		} else {
			v163 = v159
		}
		vals[163] = v163
		var v165 uint64
		if v42 == 0x4 {
			v165 = 1
		}
		vals[165] = v165
		v166 := v8 & v165
		vals[166] = v166
		var v168 uint64
		if v166 != 0 {
			v168 = v167
		} else {
			v168 = v164
		}
		vals[168] = v168
		v170 := v8 & v146
		vals[170] = v170
		var v172 uint64
		if v170 != 0 {
			v172 = v171
		} else {
			v172 = v169
		}
		vals[172] = v172
		var v174 uint64
		if v42 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		v175 := v6 & v174
		vals[175] = v175
		var v177 uint64
		if v175 != 0 {
			v177 = v176
		} else {
			v177 = v173
		}
		vals[177] = v177
		var v179 uint64
		if v42 == 0x2 {
			v179 = 1
		}
		vals[179] = v179
		v180 := v4 & v179
		vals[180] = v180
		var v182 uint64
		if v180 != 0 {
			v182 = v181
		} else {
			v182 = v178
		}
		vals[182] = v182
		v184 := v2 & v131
		vals[184] = v184
		var v186 uint64
		if v184 != 0 {
			v186 = v185
		} else {
			v186 = v183
		}
		vals[186] = v186
		var v187 uint64
		if v0 == 0x9 {
			v187 = 1
		}
		vals[187] = v187
	}
	done := vals[187] != 0
	l0 := vals[42] & 0xf
	l1 := vals[45] & 0x1fff
	l2 := vals[47] & 0xffffff
	l3 := vals[66] & 0xffffff
	l4 := vals[71] & 0xffffff
	l5 := vals[47] & 0xffffff
	l6 := vals[93] & 0xffffff
	l7 := vals[96] & 0xffffff
	l8 := vals[47] & 0xffffff
	l9 := vals[105] & 0xffffff
	l10 := vals[108] & 0xffffff
	l11 := vals[47] & 0xffffff
	l12 := vals[118] & 0xffffff
	l13 := vals[121] & 0xffffff
	l14 := vals[47] & 0xffffff
	l15 := vals[126] & 0xffffff
	l16 := vals[129] & 0xffffff
	l17 := vals[134] & 0xffffff
	l18 := vals[139] & 0xffffff
	l19 := vals[144] & 0xffffff
	l20 := vals[149] & 0xffffff
	l21 := vals[154] & 0xffffff
	l22 := vals[158] & 0xffffff
	l23 := vals[163] & 0xffffff
	l24 := vals[168] & 0xffffff
	l25 := vals[172] & 0xffffff
	l26 := vals[177] & 0xffffff
	l27 := vals[182] & 0xffffff
	l28 := vals[186] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[46] = l2
	vals[48] = l3
	vals[67] = l4
	vals[72] = l5
	vals[73] = l6
	vals[94] = l7
	vals[97] = l8
	vals[98] = l9
	vals[106] = l10
	vals[109] = l11
	vals[110] = l12
	vals[119] = l13
	vals[122] = l14
	vals[123] = l15
	vals[127] = l16
	vals[130] = l17
	vals[135] = l18
	vals[140] = l19
	vals[145] = l20
	vals[150] = l21
	vals[155] = l22
	vals[159] = l23
	vals[164] = l24
	vals[169] = l25
	vals[173] = l26
	vals[178] = l27
	vals[183] = l28
	return cycles + 1, done
}

func step_h264_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[133]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v46 := vals[46]
	v65 := vals[65]
	v86 := vals[86]
	v90 := vals[90]
	v98 := vals[98]
	v101 := vals[101]
	v110 := vals[110]
	v114 := vals[114]
	v119 := vals[119]
	v124 := vals[124]
	v129 := vals[129]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x1
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x1:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			v111 := (v53 >> 1)
			v112 := (v110 + v111) & 0xffffff
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v112
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x2
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x2:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x3
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x3:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			var v92 uint64
			if v12 == 0x2 {
				v92 = 1
			}
			v95 := (0x3 + v75) & 0xff
			v96 := (v90 + v95) & 0xffffff
			v99 := (v98 + 0x1) & 0xffffff
			v104 := v53
			v105 := (v53 >> 2)
			v106 := (v104 - v105) & 0xff
			v107 := (0xa + v106) & 0xff
			v108 := (v101 + v107) & 0xffffff
			v127 := (v124 + 0x1) & 0xffffff
			v131 := (v129 + 0x1) & 0xffffff
			v39 := v21
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v9
			v48 := v14
			v49 := v48
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v93 := v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			v113 := v110
			var v115 uint64
			if v42 == 0x7 {
				v115 = 1
			}
			v118 := v114
			v123 := v119
			var v125 uint64
			if v42 == 0x5 {
				v125 = 1
			}
			v126 := v125
			var v128 uint64
			if v126 != 0 {
				v128 = v127
			} else {
				v128 = v124
			}
			v130 := v115
			var v132 uint64
			if v130 != 0 {
				v132 = v131
			} else {
				v132 = v129
			}
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x4:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v45 := v9
			v57 := v56
			v60 := v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x7
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x5:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			v76 := (0x2 + v75) & 0xff
			v78 := (v10 >> 8)
			v80 := v78 & 0x1
			var v82 uint64
			if v80 != 0 {
				v82 = 0x14
			} else {
				v82 = 0x0
			}
			v83 := (v76 + v82) & 0xff
			v84 := (v65 + v83) & 0xffffff
			v88 := (v86 + 0x1) & 0xffffff
			v122 := (v119 + 0x1) & 0xffffff
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v84
			v89 := v88
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v122
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x6
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x6:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v117 := (v114 + 0x1) & 0xffffff
			v45 := v9
			v57 := v56
			v60 := v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v117
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x7
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x7:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = 0x8
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x8:
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v44
			v63 := v46
			v64 := v63
			v85 := v65
			v89 := v86
			v97 := v90
			v100 := v98
			v109 := v101
			v113 := v110
			v118 := v114
			v123 := v119
			v128 := v124
			v132 := v129
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		case 0x9:
			break loop
		default:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			v76 := (0x2 + v75) & 0xff
			v78 := (v10 >> 8)
			v80 := v78 & 0x1
			var v82 uint64
			if v80 != 0 {
				v82 = 0x14
			} else {
				v82 = 0x0
			}
			v83 := (v76 + v82) & 0xff
			v84 := (v65 + v83) & 0xffffff
			v88 := (v86 + 0x1) & 0xffffff
			var v92 uint64
			if v12 == 0x2 {
				v92 = 1
			}
			v95 := (0x3 + v75) & 0xff
			v96 := (v90 + v95) & 0xffffff
			v99 := (v98 + 0x1) & 0xffffff
			v104 := v53
			v105 := (v53 >> 2)
			v106 := (v104 - v105) & 0xff
			v107 := (0xa + v106) & 0xff
			v108 := (v101 + v107) & 0xffffff
			v111 := (v53 >> 1)
			v112 := (v110 + v111) & 0xffffff
			v117 := (v114 + 0x1) & 0xffffff
			v122 := (v119 + 0x1) & 0xffffff
			v127 := (v124 + 0x1) & 0xffffff
			v131 := (v129 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v23 uint64
			if v0 == 0x5 {
				v23 = 1
			}
			var v25 uint64
			if v0 == 0x6 {
				v25 = 1
			}
			var v26 uint64
			if v0 == 0x7 {
				v26 = 1
			}
			var v28 uint64
			if v0 == 0x8 {
				v28 = 1
			}
			var v34 uint64
			if v28 != 0 {
				v34 = v33
			} else {
				v34 = v0
			}
			var v35 uint64
			if v26 != 0 {
				v35 = 0x8
			} else {
				v35 = v34
			}
			var v36 uint64
			if v25 != 0 {
				v36 = 0x7
			} else {
				v36 = v35
			}
			var v37 uint64
			if v23 != 0 {
				v37 = 0x6
			} else {
				v37 = v36
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x7
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v21
			} else {
				v39 = v38
			}
			var v40 uint64
			if v6 != 0 {
				v40 = 0x3
			} else {
				v40 = v39
			}
			var v41 uint64
			if v4 != 0 {
				v41 = 0x2
			} else {
				v41 = v40
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x1
			} else {
				v42 = v41
			}
			var v45 uint64
			if v28 != 0 {
				v45 = v44
			} else {
				v45 = v9
			}
			v47 := (v22 | v25)
			v48 := v8 & v14
			v49 := (v47 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			var v85 uint64
			if v23 != 0 {
				v85 = v84
			} else {
				v85 = v65
			}
			var v89 uint64
			if v23 != 0 {
				v89 = v88
			} else {
				v89 = v86
			}
			v93 := v8 & v92
			var v97 uint64
			if v93 != 0 {
				v97 = v96
			} else {
				v97 = v90
			}
			var v100 uint64
			if v93 != 0 {
				v100 = v99
			} else {
				v100 = v98
			}
			v102 := v8 & v17
			var v109 uint64
			if v102 != 0 {
				v109 = v108
			} else {
				v109 = v101
			}
			var v113 uint64
			if v4 != 0 {
				v113 = v112
			} else {
				v113 = v110
			}
			var v115 uint64
			if v42 == 0x7 {
				v115 = 1
			}
			v116 := v25 & v115
			var v118 uint64
			if v116 != 0 {
				v118 = v117
			} else {
				v118 = v114
			}
			var v120 uint64
			if v42 == 0x6 {
				v120 = 1
			}
			v121 := v23 & v120
			var v123 uint64
			if v121 != 0 {
				v123 = v122
			} else {
				v123 = v119
			}
			var v125 uint64
			if v42 == 0x5 {
				v125 = 1
			}
			v126 := v8 & v125
			var v128 uint64
			if v126 != 0 {
				v128 = v127
			} else {
				v128 = v124
			}
			v130 := v8 & v115
			var v132 uint64
			if v130 != 0 {
				v132 = v131
			} else {
				v132 = v129
			}
			var v133 uint64
			if v0 == 0x9 {
				v133 = 1
			}
			if v133 != 0 {
				break loop
			}
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v89
			n5 := v97
			n6 := v100
			n7 := v109
			n8 := v113
			n9 := v118
			n10 := v123
			n11 := v128
			n12 := v132
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v90 = n5
			v98 = n6
			v101 = n7
			v110 = n8
			v114 = n9
			v119 = n10
			v124 = n11
			v129 = n12
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[46] = v46
	vals[65] = v65
	vals[86] = v86
	vals[90] = v90
	vals[98] = v98
	vals[101] = v101
	vals[110] = v110
	vals[114] = v114
	vals[119] = v119
	vals[124] = v124
	vals[129] = v129
	var v10 uint64
	if addr := uint64(v9); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0xfffffff
	}
	vals[10] = v10
	v12 := v10 & 0x3
	vals[12] = v12
	var v14 uint64
	if v12 == 0x0 {
		v14 = 1
	}
	vals[14] = v14
	var v17 uint64
	if v12 == 0x1 {
		v17 = 1
	}
	vals[17] = v17
	var v20 uint64
	if v17 != 0 {
		v20 = 0x4
	} else {
		v20 = 0x5
	}
	vals[20] = v20
	var v21 uint64
	if v14 != 0 {
		v21 = 0x7
	} else {
		v21 = v20
	}
	vals[21] = v21
	var v30 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v30 = m0[addr] & 0x1fff
	}
	vals[30] = v30
	var v31 uint64
	if v30 <= v9 {
		v31 = 1
	}
	vals[31] = v31
	var v33 uint64
	if v31 != 0 {
		v33 = 0x9
	} else {
		v33 = 0x1
	}
	vals[33] = v33
	v44 := (v9 + 0x1) & 0x1fff
	vals[44] = v44
	v51 := (v10 >> 2)
	vals[51] = v51
	v53 := v51 & 0x3f
	vals[53] = v53
	var v55 uint64
	if v53 != 0x0 {
		v55 = 1
	}
	vals[55] = v55
	v56 := ^v55 & 0x1
	vals[56] = v56
	v59 := (v46 + 0x8) & 0xffffff
	vals[59] = v59
	v62 := (v46 + 0xc) & 0xffffff
	vals[62] = v62
	v68 := (v10 >> 9)
	vals[68] = v68
	v70 := v68 & 0x7
	vals[70] = v70
	v72 := v70
	vals[72] = v72
	v74 := (v72 << 1) & 0xff
	vals[74] = v74
	v75 := (v72 + v74) & 0xff
	vals[75] = v75
	v76 := (0x2 + v75) & 0xff
	vals[76] = v76
	v78 := (v10 >> 8)
	vals[78] = v78
	v80 := v78 & 0x1
	vals[80] = v80
	var v82 uint64
	if v80 != 0 {
		v82 = 0x14
	} else {
		v82 = 0x0
	}
	vals[82] = v82
	v83 := (v76 + v82) & 0xff
	vals[83] = v83
	v84 := (v65 + v83) & 0xffffff
	vals[84] = v84
	v88 := (v86 + 0x1) & 0xffffff
	vals[88] = v88
	var v92 uint64
	if v12 == 0x2 {
		v92 = 1
	}
	vals[92] = v92
	v95 := (0x3 + v75) & 0xff
	vals[95] = v95
	v96 := (v90 + v95) & 0xffffff
	vals[96] = v96
	v99 := (v98 + 0x1) & 0xffffff
	vals[99] = v99
	v104 := v53
	vals[104] = v104
	v105 := (v53 >> 2)
	vals[105] = v105
	v106 := (v104 - v105) & 0xff
	vals[106] = v106
	v107 := (0xa + v106) & 0xff
	vals[107] = v107
	v108 := (v101 + v107) & 0xffffff
	vals[108] = v108
	v111 := (v53 >> 1)
	vals[111] = v111
	v112 := (v110 + v111) & 0xffffff
	vals[112] = v112
	v117 := (v114 + 0x1) & 0xffffff
	vals[117] = v117
	v122 := (v119 + 0x1) & 0xffffff
	vals[122] = v122
	v127 := (v124 + 0x1) & 0xffffff
	vals[127] = v127
	v131 := (v129 + 0x1) & 0xffffff
	vals[131] = v131
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x0
		vals[37] = 0x0
		vals[38] = 0x0
		vals[39] = 0x0
		vals[40] = 0x0
		vals[41] = 0x0
		vals[42] = 0x1
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x1
		vals[35] = 0x1
		vals[36] = 0x1
		vals[37] = 0x1
		vals[38] = 0x1
		vals[39] = 0x1
		vals[40] = 0x1
		vals[41] = 0x2
		vals[42] = 0x2
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v112
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x2
		vals[35] = 0x2
		vals[36] = 0x2
		vals[37] = 0x2
		vals[38] = 0x2
		vals[39] = 0x2
		vals[40] = 0x3
		vals[41] = 0x3
		vals[42] = 0x3
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x3
		vals[35] = 0x3
		vals[36] = 0x3
		vals[37] = 0x3
		vals[38] = 0x3
		v39 := v21
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		v48 := v14
		vals[48] = v48
		v49 := v48
		vals[49] = v49
		v57 := v49 & v56
		vals[57] = v57
		v60 := v49 & v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		v93 := v92
		vals[93] = v93
		var v97 uint64
		if v93 != 0 {
			v97 = v96
		} else {
			v97 = v90
		}
		vals[97] = v97
		var v100 uint64
		if v93 != 0 {
			v100 = v99
		} else {
			v100 = v98
		}
		vals[100] = v100
		v102 := v17
		vals[102] = v102
		var v109 uint64
		if v102 != 0 {
			v109 = v108
		} else {
			v109 = v101
		}
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		var v115 uint64
		if v42 == 0x7 {
			v115 = 1
		}
		vals[115] = v115
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		var v120 uint64
		if v42 == 0x6 {
			v120 = 1
		}
		vals[120] = v120
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		var v125 uint64
		if v42 == 0x5 {
			v125 = 1
		}
		vals[125] = v125
		v126 := v125
		vals[126] = v126
		var v128 uint64
		if v126 != 0 {
			v128 = v127
		} else {
			v128 = v124
		}
		vals[128] = v128
		v130 := v115
		vals[130] = v130
		var v132 uint64
		if v130 != 0 {
			v132 = v131
		} else {
			v132 = v129
		}
		vals[132] = v132
		vals[133] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x1
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x4
		vals[35] = 0x4
		vals[36] = 0x4
		vals[37] = 0x4
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[47] = 0x1
		vals[48] = 0x0
		vals[49] = 0x1
		v57 := v56
		vals[57] = v57
		v60 := v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x1
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x5
		vals[35] = 0x5
		vals[36] = 0x5
		vals[37] = 0x6
		vals[38] = 0x6
		vals[39] = 0x6
		vals[40] = 0x6
		vals[41] = 0x6
		vals[42] = 0x6
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v84
		vals[85] = v85
		v89 := v88
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x1
		vals[121] = 0x1
		v123 := v122
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x1
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x7
		vals[37] = 0x7
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[47] = 0x1
		vals[48] = 0x0
		vals[49] = 0x1
		v57 := v56
		vals[57] = v57
		v60 := v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x1
		vals[116] = 0x1
		v118 := v117
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x7:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x1
		vals[28] = 0x0
		vals[34] = 0x7
		vals[35] = 0x8
		vals[36] = 0x8
		vals[37] = 0x8
		vals[38] = 0x8
		vals[39] = 0x8
		vals[40] = 0x8
		vals[41] = 0x8
		vals[42] = 0x8
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x8:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x1
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v44
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		var v115 uint64
		if v42 == 0x7 {
			v115 = 1
		}
		vals[115] = v115
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		var v120 uint64
		if v42 == 0x6 {
			v120 = 1
		}
		vals[120] = v120
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		var v125 uint64
		if v42 == 0x5 {
			v125 = 1
		}
		vals[125] = v125
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x0
	case 0x9:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x9
		vals[35] = 0x9
		vals[36] = 0x9
		vals[37] = 0x9
		vals[38] = 0x9
		vals[39] = 0x9
		vals[40] = 0x9
		vals[41] = 0x9
		vals[42] = 0x9
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v86
		vals[89] = v89
		vals[93] = 0x0
		v97 := v90
		vals[97] = v97
		v100 := v98
		vals[100] = v100
		vals[102] = 0x0
		v109 := v101
		vals[109] = v109
		v113 := v110
		vals[113] = v113
		vals[115] = 0x0
		vals[116] = 0x0
		v118 := v114
		vals[118] = v118
		vals[120] = 0x0
		vals[121] = 0x0
		v123 := v119
		vals[123] = v123
		vals[125] = 0x0
		vals[126] = 0x0
		v128 := v124
		vals[128] = v128
		vals[130] = 0x0
		v132 := v129
		vals[132] = v132
		vals[133] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v22 uint64
		if v0 == 0x4 {
			v22 = 1
		}
		vals[22] = v22
		var v23 uint64
		if v0 == 0x5 {
			v23 = 1
		}
		vals[23] = v23
		var v25 uint64
		if v0 == 0x6 {
			v25 = 1
		}
		vals[25] = v25
		var v26 uint64
		if v0 == 0x7 {
			v26 = 1
		}
		vals[26] = v26
		var v28 uint64
		if v0 == 0x8 {
			v28 = 1
		}
		vals[28] = v28
		var v34 uint64
		if v28 != 0 {
			v34 = v33
		} else {
			v34 = v0
		}
		vals[34] = v34
		var v35 uint64
		if v26 != 0 {
			v35 = 0x8
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v25 != 0 {
			v36 = 0x7
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v37 uint64
		if v23 != 0 {
			v37 = 0x6
		} else {
			v37 = v36
		}
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x7
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v39 uint64
		if v8 != 0 {
			v39 = v21
		} else {
			v39 = v38
		}
		vals[39] = v39
		var v40 uint64
		if v6 != 0 {
			v40 = 0x3
		} else {
			v40 = v39
		}
		vals[40] = v40
		var v41 uint64
		if v4 != 0 {
			v41 = 0x2
		} else {
			v41 = v40
		}
		vals[41] = v41
		var v42 uint64
		if v2 != 0 {
			v42 = 0x1
		} else {
			v42 = v41
		}
		vals[42] = v42
		var v45 uint64
		if v28 != 0 {
			v45 = v44
		} else {
			v45 = v9
		}
		vals[45] = v45
		v47 := (v22 | v25)
		vals[47] = v47
		v48 := v8 & v14
		vals[48] = v48
		v49 := (v47 | v48)
		vals[49] = v49
		v57 := v49 & v56
		vals[57] = v57
		v60 := v49 & v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		var v85 uint64
		if v23 != 0 {
			v85 = v84
		} else {
			v85 = v65
		}
		vals[85] = v85
		var v89 uint64
		if v23 != 0 {
			v89 = v88
		} else {
			v89 = v86
		}
		vals[89] = v89
		v93 := v8 & v92
		vals[93] = v93
		var v97 uint64
		if v93 != 0 {
			v97 = v96
		} else {
			v97 = v90
		}
		vals[97] = v97
		var v100 uint64
		if v93 != 0 {
			v100 = v99
		} else {
			v100 = v98
		}
		vals[100] = v100
		v102 := v8 & v17
		vals[102] = v102
		var v109 uint64
		if v102 != 0 {
			v109 = v108
		} else {
			v109 = v101
		}
		vals[109] = v109
		var v113 uint64
		if v4 != 0 {
			v113 = v112
		} else {
			v113 = v110
		}
		vals[113] = v113
		var v115 uint64
		if v42 == 0x7 {
			v115 = 1
		}
		vals[115] = v115
		v116 := v25 & v115
		vals[116] = v116
		var v118 uint64
		if v116 != 0 {
			v118 = v117
		} else {
			v118 = v114
		}
		vals[118] = v118
		var v120 uint64
		if v42 == 0x6 {
			v120 = 1
		}
		vals[120] = v120
		v121 := v23 & v120
		vals[121] = v121
		var v123 uint64
		if v121 != 0 {
			v123 = v122
		} else {
			v123 = v119
		}
		vals[123] = v123
		var v125 uint64
		if v42 == 0x5 {
			v125 = 1
		}
		vals[125] = v125
		v126 := v8 & v125
		vals[126] = v126
		var v128 uint64
		if v126 != 0 {
			v128 = v127
		} else {
			v128 = v124
		}
		vals[128] = v128
		v130 := v8 & v115
		vals[130] = v130
		var v132 uint64
		if v130 != 0 {
			v132 = v131
		} else {
			v132 = v129
		}
		vals[132] = v132
		var v133 uint64
		if v0 == 0x9 {
			v133 = 1
		}
		vals[133] = v133
	}
	done := vals[133] != 0
	l0 := vals[42] & 0xf
	l1 := vals[45] & 0x1fff
	l2 := vals[64] & 0xffffff
	l3 := vals[85] & 0xffffff
	l4 := vals[89] & 0xffffff
	l5 := vals[97] & 0xffffff
	l6 := vals[100] & 0xffffff
	l7 := vals[109] & 0xffffff
	l8 := vals[113] & 0xffffff
	l9 := vals[118] & 0xffffff
	l10 := vals[123] & 0xffffff
	l11 := vals[128] & 0xffffff
	l12 := vals[132] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[46] = l2
	vals[65] = l3
	vals[86] = l4
	vals[90] = l5
	vals[98] = l6
	vals[101] = l7
	vals[110] = l8
	vals[114] = l9
	vals[119] = l10
	vals[124] = l11
	vals[129] = l12
	return cycles + 1, done
}

func step_h264_slice_quick(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[113]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v46 := vals[46]
	v65 := vals[65]
	v86 := vals[86]
	v94 := vals[94]
	v103 := vals[103]
	v107 := vals[107]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x1
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x1:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			v104 := (v53 >> 1)
			v105 := (v103 + v104) & 0xffffff
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v105
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x2
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x2:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x3
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x3:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			var v88 uint64
			if v12 == 0x2 {
				v88 = 1
			}
			v91 := (0x3 + v75) & 0xff
			v92 := (v86 + v91) & 0xffffff
			v97 := v53
			v98 := (v53 >> 2)
			v99 := (v97 - v98) & 0xff
			v100 := (0xa + v99) & 0xff
			v101 := (v94 + v100) & 0xffffff
			v111 := (v107 + 0x1) & 0xffffff
			v39 := v21
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v9
			v48 := v14
			v49 := v48
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v89 := v88
			var v93 uint64
			if v89 != 0 {
				v93 = v92
			} else {
				v93 = v86
			}
			v95 := v17
			var v102 uint64
			if v95 != 0 {
				v102 = v101
			} else {
				v102 = v94
			}
			v106 := v103
			var v108 uint64
			if v42 == 0x7 {
				v108 = 1
			}
			v109 := v108
			var v112 uint64
			if v109 != 0 {
				v112 = v111
			} else {
				v112 = v107
			}
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x4:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v45 := v9
			v57 := v56
			v60 := v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x7
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x5:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			v76 := (0x2 + v75) & 0xff
			v78 := (v10 >> 8)
			v80 := v78 & 0x1
			var v82 uint64
			if v80 != 0 {
				v82 = 0x14
			} else {
				v82 = 0x0
			}
			v83 := (v76 + v82) & 0xff
			v84 := (v65 + v83) & 0xffffff
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v84
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x6
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x6:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v45 := v9
			v57 := v56
			v60 := v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x7
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x7:
			v45 := v9
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = 0x8
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x8:
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v40 := v39
			v41 := v40
			v42 := v41
			v45 := v44
			v63 := v46
			v64 := v63
			v85 := v65
			v93 := v86
			v102 := v94
			v106 := v103
			v112 := v107
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		case 0x9:
			break loop
		default:
			var v10 uint64
			if addr := uint64(v9); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0xfffffff
			}
			v12 := v10 & 0x3
			var v14 uint64
			if v12 == 0x0 {
				v14 = 1
			}
			var v17 uint64
			if v12 == 0x1 {
				v17 = 1
			}
			var v20 uint64
			if v17 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x5
			}
			var v21 uint64
			if v14 != 0 {
				v21 = 0x7
			} else {
				v21 = v20
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x1fff
			}
			var v31 uint64
			if v30 <= v9 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x9
			} else {
				v33 = 0x1
			}
			v44 := (v9 + 0x1) & 0x1fff
			v51 := (v10 >> 2)
			v53 := v51 & 0x3f
			var v55 uint64
			if v53 != 0x0 {
				v55 = 1
			}
			v56 := ^v55 & 0x1
			v59 := (v46 + 0x8) & 0xffffff
			v62 := (v46 + 0xc) & 0xffffff
			v68 := (v10 >> 9)
			v70 := v68 & 0x7
			v72 := v70
			v74 := (v72 << 1) & 0xff
			v75 := (v72 + v74) & 0xff
			v76 := (0x2 + v75) & 0xff
			v78 := (v10 >> 8)
			v80 := v78 & 0x1
			var v82 uint64
			if v80 != 0 {
				v82 = 0x14
			} else {
				v82 = 0x0
			}
			v83 := (v76 + v82) & 0xff
			v84 := (v65 + v83) & 0xffffff
			var v88 uint64
			if v12 == 0x2 {
				v88 = 1
			}
			v91 := (0x3 + v75) & 0xff
			v92 := (v86 + v91) & 0xffffff
			v97 := v53
			v98 := (v53 >> 2)
			v99 := (v97 - v98) & 0xff
			v100 := (0xa + v99) & 0xff
			v101 := (v94 + v100) & 0xffffff
			v104 := (v53 >> 1)
			v105 := (v103 + v104) & 0xffffff
			v111 := (v107 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v22 uint64
			if v0 == 0x4 {
				v22 = 1
			}
			var v23 uint64
			if v0 == 0x5 {
				v23 = 1
			}
			var v25 uint64
			if v0 == 0x6 {
				v25 = 1
			}
			var v26 uint64
			if v0 == 0x7 {
				v26 = 1
			}
			var v28 uint64
			if v0 == 0x8 {
				v28 = 1
			}
			var v34 uint64
			if v28 != 0 {
				v34 = v33
			} else {
				v34 = v0
			}
			var v35 uint64
			if v26 != 0 {
				v35 = 0x8
			} else {
				v35 = v34
			}
			var v36 uint64
			if v25 != 0 {
				v36 = 0x7
			} else {
				v36 = v35
			}
			var v37 uint64
			if v23 != 0 {
				v37 = 0x6
			} else {
				v37 = v36
			}
			var v38 uint64
			if v22 != 0 {
				v38 = 0x7
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v21
			} else {
				v39 = v38
			}
			var v40 uint64
			if v6 != 0 {
				v40 = 0x3
			} else {
				v40 = v39
			}
			var v41 uint64
			if v4 != 0 {
				v41 = 0x2
			} else {
				v41 = v40
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x1
			} else {
				v42 = v41
			}
			var v45 uint64
			if v28 != 0 {
				v45 = v44
			} else {
				v45 = v9
			}
			v47 := (v22 | v25)
			v48 := v8 & v14
			v49 := (v47 | v48)
			v57 := v49 & v56
			v60 := v49 & v55
			var v63 uint64
			if v60 != 0 {
				v63 = v62
			} else {
				v63 = v46
			}
			var v64 uint64
			if v57 != 0 {
				v64 = v59
			} else {
				v64 = v63
			}
			var v85 uint64
			if v23 != 0 {
				v85 = v84
			} else {
				v85 = v65
			}
			v89 := v8 & v88
			var v93 uint64
			if v89 != 0 {
				v93 = v92
			} else {
				v93 = v86
			}
			v95 := v8 & v17
			var v102 uint64
			if v95 != 0 {
				v102 = v101
			} else {
				v102 = v94
			}
			var v106 uint64
			if v4 != 0 {
				v106 = v105
			} else {
				v106 = v103
			}
			var v108 uint64
			if v42 == 0x7 {
				v108 = 1
			}
			v109 := v8 & v108
			var v112 uint64
			if v109 != 0 {
				v112 = v111
			} else {
				v112 = v107
			}
			var v113 uint64
			if v0 == 0x9 {
				v113 = 1
			}
			if v113 != 0 {
				break loop
			}
			n0 := v42
			n1 := v45
			n2 := v64
			n3 := v85
			n4 := v93
			n5 := v102
			n6 := v106
			n7 := v112
			v0 = n0
			v9 = n1
			v46 = n2
			v65 = n3
			v86 = n4
			v94 = n5
			v103 = n6
			v107 = n7
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[46] = v46
	vals[65] = v65
	vals[86] = v86
	vals[94] = v94
	vals[103] = v103
	vals[107] = v107
	var v10 uint64
	if addr := uint64(v9); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0xfffffff
	}
	vals[10] = v10
	v12 := v10 & 0x3
	vals[12] = v12
	var v14 uint64
	if v12 == 0x0 {
		v14 = 1
	}
	vals[14] = v14
	var v17 uint64
	if v12 == 0x1 {
		v17 = 1
	}
	vals[17] = v17
	var v20 uint64
	if v17 != 0 {
		v20 = 0x4
	} else {
		v20 = 0x5
	}
	vals[20] = v20
	var v21 uint64
	if v14 != 0 {
		v21 = 0x7
	} else {
		v21 = v20
	}
	vals[21] = v21
	var v30 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v30 = m0[addr] & 0x1fff
	}
	vals[30] = v30
	var v31 uint64
	if v30 <= v9 {
		v31 = 1
	}
	vals[31] = v31
	var v33 uint64
	if v31 != 0 {
		v33 = 0x9
	} else {
		v33 = 0x1
	}
	vals[33] = v33
	v44 := (v9 + 0x1) & 0x1fff
	vals[44] = v44
	v51 := (v10 >> 2)
	vals[51] = v51
	v53 := v51 & 0x3f
	vals[53] = v53
	var v55 uint64
	if v53 != 0x0 {
		v55 = 1
	}
	vals[55] = v55
	v56 := ^v55 & 0x1
	vals[56] = v56
	v59 := (v46 + 0x8) & 0xffffff
	vals[59] = v59
	v62 := (v46 + 0xc) & 0xffffff
	vals[62] = v62
	v68 := (v10 >> 9)
	vals[68] = v68
	v70 := v68 & 0x7
	vals[70] = v70
	v72 := v70
	vals[72] = v72
	v74 := (v72 << 1) & 0xff
	vals[74] = v74
	v75 := (v72 + v74) & 0xff
	vals[75] = v75
	v76 := (0x2 + v75) & 0xff
	vals[76] = v76
	v78 := (v10 >> 8)
	vals[78] = v78
	v80 := v78 & 0x1
	vals[80] = v80
	var v82 uint64
	if v80 != 0 {
		v82 = 0x14
	} else {
		v82 = 0x0
	}
	vals[82] = v82
	v83 := (v76 + v82) & 0xff
	vals[83] = v83
	v84 := (v65 + v83) & 0xffffff
	vals[84] = v84
	var v88 uint64
	if v12 == 0x2 {
		v88 = 1
	}
	vals[88] = v88
	v91 := (0x3 + v75) & 0xff
	vals[91] = v91
	v92 := (v86 + v91) & 0xffffff
	vals[92] = v92
	v97 := v53
	vals[97] = v97
	v98 := (v53 >> 2)
	vals[98] = v98
	v99 := (v97 - v98) & 0xff
	vals[99] = v99
	v100 := (0xa + v99) & 0xff
	vals[100] = v100
	v101 := (v94 + v100) & 0xffffff
	vals[101] = v101
	v104 := (v53 >> 1)
	vals[104] = v104
	v105 := (v103 + v104) & 0xffffff
	vals[105] = v105
	v111 := (v107 + 0x1) & 0xffffff
	vals[111] = v111
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x0
		vals[37] = 0x0
		vals[38] = 0x0
		vals[39] = 0x0
		vals[40] = 0x0
		vals[41] = 0x0
		vals[42] = 0x1
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x1
		vals[35] = 0x1
		vals[36] = 0x1
		vals[37] = 0x1
		vals[38] = 0x1
		vals[39] = 0x1
		vals[40] = 0x1
		vals[41] = 0x2
		vals[42] = 0x2
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v105
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x2
		vals[35] = 0x2
		vals[36] = 0x2
		vals[37] = 0x2
		vals[38] = 0x2
		vals[39] = 0x2
		vals[40] = 0x3
		vals[41] = 0x3
		vals[42] = 0x3
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x3
		vals[35] = 0x3
		vals[36] = 0x3
		vals[37] = 0x3
		vals[38] = 0x3
		v39 := v21
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		v48 := v14
		vals[48] = v48
		v49 := v48
		vals[49] = v49
		v57 := v49 & v56
		vals[57] = v57
		v60 := v49 & v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		v89 := v88
		vals[89] = v89
		var v93 uint64
		if v89 != 0 {
			v93 = v92
		} else {
			v93 = v86
		}
		vals[93] = v93
		v95 := v17
		vals[95] = v95
		var v102 uint64
		if v95 != 0 {
			v102 = v101
		} else {
			v102 = v94
		}
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		var v108 uint64
		if v42 == 0x7 {
			v108 = 1
		}
		vals[108] = v108
		v109 := v108
		vals[109] = v109
		var v112 uint64
		if v109 != 0 {
			v112 = v111
		} else {
			v112 = v107
		}
		vals[112] = v112
		vals[113] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x1
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x4
		vals[35] = 0x4
		vals[36] = 0x4
		vals[37] = 0x4
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[47] = 0x1
		vals[48] = 0x0
		vals[49] = 0x1
		v57 := v56
		vals[57] = v57
		v60 := v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x1
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x5
		vals[35] = 0x5
		vals[36] = 0x5
		vals[37] = 0x6
		vals[38] = 0x6
		vals[39] = 0x6
		vals[40] = 0x6
		vals[41] = 0x6
		vals[42] = 0x6
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v84
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x1
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x7
		vals[37] = 0x7
		vals[38] = 0x7
		vals[39] = 0x7
		vals[40] = 0x7
		vals[41] = 0x7
		vals[42] = 0x7
		v45 := v9
		vals[45] = v45
		vals[47] = 0x1
		vals[48] = 0x0
		vals[49] = 0x1
		v57 := v56
		vals[57] = v57
		v60 := v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x1
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x7:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x1
		vals[28] = 0x0
		vals[34] = 0x7
		vals[35] = 0x8
		vals[36] = 0x8
		vals[37] = 0x8
		vals[38] = 0x8
		vals[39] = 0x8
		vals[40] = 0x8
		vals[41] = 0x8
		vals[42] = 0x8
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x8:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x1
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v40 := v39
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		v42 := v41
		vals[42] = v42
		v45 := v44
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		var v108 uint64
		if v42 == 0x7 {
			v108 = 1
		}
		vals[108] = v108
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x0
	case 0x9:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[25] = 0x0
		vals[26] = 0x0
		vals[28] = 0x0
		vals[34] = 0x9
		vals[35] = 0x9
		vals[36] = 0x9
		vals[37] = 0x9
		vals[38] = 0x9
		vals[39] = 0x9
		vals[40] = 0x9
		vals[41] = 0x9
		vals[42] = 0x9
		v45 := v9
		vals[45] = v45
		vals[47] = 0x0
		vals[48] = 0x0
		vals[49] = 0x0
		vals[57] = 0x0
		vals[60] = 0x0
		v63 := v46
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		v85 := v65
		vals[85] = v85
		vals[89] = 0x0
		v93 := v86
		vals[93] = v93
		vals[95] = 0x0
		v102 := v94
		vals[102] = v102
		v106 := v103
		vals[106] = v106
		vals[108] = 0x0
		vals[109] = 0x0
		v112 := v107
		vals[112] = v112
		vals[113] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v22 uint64
		if v0 == 0x4 {
			v22 = 1
		}
		vals[22] = v22
		var v23 uint64
		if v0 == 0x5 {
			v23 = 1
		}
		vals[23] = v23
		var v25 uint64
		if v0 == 0x6 {
			v25 = 1
		}
		vals[25] = v25
		var v26 uint64
		if v0 == 0x7 {
			v26 = 1
		}
		vals[26] = v26
		var v28 uint64
		if v0 == 0x8 {
			v28 = 1
		}
		vals[28] = v28
		var v34 uint64
		if v28 != 0 {
			v34 = v33
		} else {
			v34 = v0
		}
		vals[34] = v34
		var v35 uint64
		if v26 != 0 {
			v35 = 0x8
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v25 != 0 {
			v36 = 0x7
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v37 uint64
		if v23 != 0 {
			v37 = 0x6
		} else {
			v37 = v36
		}
		vals[37] = v37
		var v38 uint64
		if v22 != 0 {
			v38 = 0x7
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v39 uint64
		if v8 != 0 {
			v39 = v21
		} else {
			v39 = v38
		}
		vals[39] = v39
		var v40 uint64
		if v6 != 0 {
			v40 = 0x3
		} else {
			v40 = v39
		}
		vals[40] = v40
		var v41 uint64
		if v4 != 0 {
			v41 = 0x2
		} else {
			v41 = v40
		}
		vals[41] = v41
		var v42 uint64
		if v2 != 0 {
			v42 = 0x1
		} else {
			v42 = v41
		}
		vals[42] = v42
		var v45 uint64
		if v28 != 0 {
			v45 = v44
		} else {
			v45 = v9
		}
		vals[45] = v45
		v47 := (v22 | v25)
		vals[47] = v47
		v48 := v8 & v14
		vals[48] = v48
		v49 := (v47 | v48)
		vals[49] = v49
		v57 := v49 & v56
		vals[57] = v57
		v60 := v49 & v55
		vals[60] = v60
		var v63 uint64
		if v60 != 0 {
			v63 = v62
		} else {
			v63 = v46
		}
		vals[63] = v63
		var v64 uint64
		if v57 != 0 {
			v64 = v59
		} else {
			v64 = v63
		}
		vals[64] = v64
		var v85 uint64
		if v23 != 0 {
			v85 = v84
		} else {
			v85 = v65
		}
		vals[85] = v85
		v89 := v8 & v88
		vals[89] = v89
		var v93 uint64
		if v89 != 0 {
			v93 = v92
		} else {
			v93 = v86
		}
		vals[93] = v93
		v95 := v8 & v17
		vals[95] = v95
		var v102 uint64
		if v95 != 0 {
			v102 = v101
		} else {
			v102 = v94
		}
		vals[102] = v102
		var v106 uint64
		if v4 != 0 {
			v106 = v105
		} else {
			v106 = v103
		}
		vals[106] = v106
		var v108 uint64
		if v42 == 0x7 {
			v108 = 1
		}
		vals[108] = v108
		v109 := v8 & v108
		vals[109] = v109
		var v112 uint64
		if v109 != 0 {
			v112 = v111
		} else {
			v112 = v107
		}
		vals[112] = v112
		var v113 uint64
		if v0 == 0x9 {
			v113 = 1
		}
		vals[113] = v113
	}
	done := vals[113] != 0
	l0 := vals[42] & 0xf
	l1 := vals[45] & 0x1fff
	l2 := vals[64] & 0xffffff
	l3 := vals[85] & 0xffffff
	l4 := vals[93] & 0xffffff
	l5 := vals[102] & 0xffffff
	l6 := vals[106] & 0xffffff
	l7 := vals[112] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[46] = l2
	vals[65] = l3
	vals[86] = l4
	vals[94] = l5
	vals[103] = l6
	vals[107] = l7
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("1fe7b9d3f48f87ed9935d7678d2c5b6483b6594dce85c51f5537715d3a6b1279", "h264", step_h264)
	rtl.RegisterNative("55928936a53a3cb3e32008a681cd2c7b45f8b7221a08203b5572043c8ca1d4a6", "h264_ins", step_h264_ins)
	rtl.RegisterNative("f7f54ff253b38df4d70e2d4d14ed59c15dcb8e8b8bdf6669f3a0df9dfc85aaf4", "h264_pruned", step_h264_pruned)
	rtl.RegisterNative("cacb145f90acfc06150042fae3ec6a189ea1d8c40ef1d994d3321de3cec67a51", "h264_cone", step_h264_cone)
	rtl.RegisterNative("de1f57a45a5b837b82f8044f7aa92308eeca8e3eea0e26049663e3ee74f91784", "h264_slice_all", step_h264_slice_all)
	rtl.RegisterNative("f1ebf5ed02d2f1d80b1271c8223e6cd1639a32323534d6159422e1fc41971f28", "h264_slice_t42", step_h264_slice_t42)
	rtl.RegisterNative("cb66cbf22c56c3341a0150ada76f2f9c957df40034e5b67e98a8ead4d94f0a35", "h264_slice_quick", step_h264_slice_quick)
}
