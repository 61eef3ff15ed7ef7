// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_aes(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[472]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	m3 := mems[3]
	m4 := mems[4]
	v2 := vals[2]
	v6 := vals[6]
	v21 := vals[21]
	v32 := vals[32]
	v86 := vals[86]
	v98 := vals[98]
	v120 := vals[120]
	v132 := vals[132]
	v133 := vals[133]
	v134 := vals[134]
	v135 := vals[135]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v23 uint64
		if v21 != 0x0 {
			v23 = 1
		}
		v24 := (v21 - 0x1) & 0x3f
		var v25 uint64
		if v23 != 0 {
			v25 = v24
		} else {
			v25 = v21
		}
		var v100 uint64
		if v98 != 0x0 {
			v100 = 1
		}
		v102 := (v98 - 0x1) & 0x1f
		var v103 uint64
		if v100 != 0 {
			v103 = v102
		} else {
			v103 = v98
		}
		var v122 uint64
		if v120 != 0x0 {
			v122 = 1
		}
		v124 := (v120 - 0x1) & 0xf
		var v125 uint64
		if v122 != 0 {
			v125 = v124
		} else {
			v125 = v120
		}
		switch v2 {
		case 0x0:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			v87 := (v1 - 0x1) & 0xffff
			v26 := v25
			v80 := v32
			v81 := v80
			v104 := v103
			v126 := v125
			v249 := v132
			v250 := v249
			v315 := v133
			v316 := v315
			v383 := v134
			v384 := v383
			v451 := v135
			v452 := v451
			v458 := v87
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			v2 = 0x1
			v6 = 0x3
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
		case 0x1:
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v13 := (0x3 - v6) & 0x3f
			v15 := (v13 + 0x1) & 0x3f
			var v16 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v16 = m0[addr] & 0xffffffff
			}
			var v18 uint64
			if v6 == 0x0 {
				v18 = 1
			}
			var v76 uint64
			if v13 == 0x3 {
				v76 = 1
			}
			v11 := v10
			v19 := v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v82 := v13
			v83 := v16
			v104 := v103
			v126 := v125
			v249 := v132
			v250 := v249
			v315 := v133
			v316 := v315
			v383 := v134
			v384 := v383
			v451 := v135
			v452 := v451
			v457 := v86
			v458 := v457
			var v469 uint64
			if v18 != 0 {
				v469 = 0x2
			} else {
				v469 = 0x1
			}
			v470 := v469
			v471 := v470
			if addr := uint64(v82); addr < uint64(len(m2)) {
				m2[addr] = v83
			}
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
		case 0x2:
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v28 := (0x2b - v21) & 0x3f
			v30 := (v28 - 0x4) & 0x3f
			var v31 uint64
			if addr := uint64(v30); addr < uint64(len(m2)) {
				v31 = m2[addr] & 0xffffffff
			}
			v34 := (v32 << 8) & 0xffffffff
			v36 := (v32 >> 24)
			v37 := (v34 | v36)
			v38 := (v37 >> 24)
			v40 := v38 & 0xff
			var v41 uint64
			if addr := uint64(v40); addr < uint64(len(m3)) {
				v41 = m3[addr] & 0xff
			}
			v43 := v41
			v44 := (v43 << 24) & 0xffffffff
			v46 := (v37 >> 16)
			v47 := v46 & 0xff
			var v48 uint64
			if addr := uint64(v47); addr < uint64(len(m3)) {
				v48 = m3[addr] & 0xff
			}
			v49 := v48
			v50 := (v49 << 16) & 0xffffffff
			v51 := (v44 | v50)
			v52 := (v37 >> 8)
			v53 := v52 & 0xff
			var v54 uint64
			if addr := uint64(v53); addr < uint64(len(m3)) {
				v54 = m3[addr] & 0xff
			}
			v55 := v54
			v56 := (v55 << 8) & 0xffffffff
			v57 := (v51 | v56)
			v58 := v37 & 0xff
			var v59 uint64
			if addr := uint64(v58); addr < uint64(len(m3)) {
				v59 = m3[addr] & 0xff
			}
			v60 := v59
			v62 := (v60 << 0) & 0xffffffff
			v63 := (v57 | v62)
			v65 := (v28 >> 2)
			v66 := (v65 - 0x1) & 0x3f
			v68 := v66 & 0xf
			var v69 uint64
			if addr := uint64(v68); addr < uint64(len(m4)) {
				v69 = m4[addr] & 0xffffffff
			}
			v70 := v28 & 0x3
			var v72 uint64
			if v70 == 0x0 {
				v72 = 1
			}
			v73 := (v63 ^ v69)
			var v74 uint64
			if v72 != 0 {
				v74 = v73
			} else {
				v74 = v32
			}
			v75 := (v31 ^ v74)
			var v91 uint64
			if v21 == 0x0 {
				v91 = 1
			}
			v11 := v10
			v26 := v25
			v80 := v75
			v81 := v80
			v82 := v28
			v83 := v75
			v92 := v91
			v96 := v92
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v126 := v125
			v249 := v132
			v250 := v249
			v315 := v133
			v316 := v315
			v383 := v134
			v384 := v383
			v451 := v135
			v452 := v451
			v457 := v86
			v458 := v457
			var v467 uint64
			if v91 != 0 {
				v467 = 0x3
			} else {
				v467 = 0x2
			}
			v468 := v467
			v470 := v468
			v471 := v470
			if addr := uint64(v82); addr < uint64(len(m2)) {
				m2[addr] = v83
			}
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
		case 0x3:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v87 := (v1 - 0x1) & 0xffff
			v88 := (v87 - v86) & 0xffff
			v105 := (0x17 - v98) & 0x1f
			v106 := (v88 << 2) & 0xffff
			v107 := v105
			v108 := (v106 + v107) & 0xffff
			v110 := (v108 + 0x5) & 0xffff
			v112 := v110 & 0x3ff
			var v113 uint64
			if addr := uint64(v112); addr < uint64(len(m0)) {
				v113 = m0[addr] & 0xffffffff
			}
			var v114 uint64
			if addr := uint64(v105); addr < uint64(len(m2)) {
				v114 = m2[addr] & 0xffffffff
			}
			v115 := (v113 ^ v114)
			var v117 uint64
			if v98 == 0x0 {
				v117 = 1
			}
			var v245 uint64
			if v105 == 0x0 {
				v245 = 1
			}
			var v313 uint64
			if v105 == 0x1 {
				v313 = 1
			}
			var v381 uint64
			if v105 == 0x2 {
				v381 = 1
			}
			var v449 uint64
			if v105 == 0x3 {
				v449 = 1
			}
			v11 := v10
			v26 := v25
			v80 := v32
			v81 := v80
			v104 := v103
			v118 := v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			v457 := v86
			v458 := v457
			var v465 uint64
			if v117 != 0 {
				v465 = 0x4
			} else {
				v465 = 0x3
			}
			v466 := v465
			v468 := v466
			v470 := v468
			v471 := v470
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
		case 0x4:
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v128 := v120
			v129 := (v128 << 2) & 0x3f
			v130 := (0x28 - v129) & 0x3f
			var v131 uint64
			if v120 == 0x0 {
				v131 = 1
			}
			v136 := (v132 >> 24)
			v137 := v136 & 0xff
			var v138 uint64
			if addr := uint64(v137); addr < uint64(len(m3)) {
				v138 = m3[addr] & 0xff
			}
			v139 := (v132 >> 16)
			v140 := v139 & 0xff
			var v141 uint64
			if addr := uint64(v140); addr < uint64(len(m3)) {
				v141 = m3[addr] & 0xff
			}
			v142 := (v132 >> 8)
			v143 := v142 & 0xff
			var v144 uint64
			if addr := uint64(v143); addr < uint64(len(m3)) {
				v144 = m3[addr] & 0xff
			}
			v145 := v132 & 0xff
			var v146 uint64
			if addr := uint64(v145); addr < uint64(len(m3)) {
				v146 = m3[addr] & 0xff
			}
			v147 := (v133 >> 24)
			v148 := v147 & 0xff
			var v149 uint64
			if addr := uint64(v148); addr < uint64(len(m3)) {
				v149 = m3[addr] & 0xff
			}
			v150 := (v133 >> 16)
			v151 := v150 & 0xff
			var v152 uint64
			if addr := uint64(v151); addr < uint64(len(m3)) {
				v152 = m3[addr] & 0xff
			}
			v153 := (v133 >> 8)
			v154 := v153 & 0xff
			var v155 uint64
			if addr := uint64(v154); addr < uint64(len(m3)) {
				v155 = m3[addr] & 0xff
			}
			v156 := v133 & 0xff
			var v157 uint64
			if addr := uint64(v156); addr < uint64(len(m3)) {
				v157 = m3[addr] & 0xff
			}
			v158 := (v134 >> 24)
			v159 := v158 & 0xff
			var v160 uint64
			if addr := uint64(v159); addr < uint64(len(m3)) {
				v160 = m3[addr] & 0xff
			}
			v161 := (v134 >> 16)
			v162 := v161 & 0xff
			var v163 uint64
			if addr := uint64(v162); addr < uint64(len(m3)) {
				v163 = m3[addr] & 0xff
			}
			v164 := (v134 >> 8)
			v165 := v164 & 0xff
			var v166 uint64
			if addr := uint64(v165); addr < uint64(len(m3)) {
				v166 = m3[addr] & 0xff
			}
			v167 := v134 & 0xff
			var v168 uint64
			if addr := uint64(v167); addr < uint64(len(m3)) {
				v168 = m3[addr] & 0xff
			}
			v169 := (v135 >> 24)
			v170 := v169 & 0xff
			var v171 uint64
			if addr := uint64(v170); addr < uint64(len(m3)) {
				v171 = m3[addr] & 0xff
			}
			v172 := (v135 >> 16)
			v173 := v172 & 0xff
			var v174 uint64
			if addr := uint64(v173); addr < uint64(len(m3)) {
				v174 = m3[addr] & 0xff
			}
			v175 := (v135 >> 8)
			v176 := v175 & 0xff
			var v177 uint64
			if addr := uint64(v176); addr < uint64(len(m3)) {
				v177 = m3[addr] & 0xff
			}
			v178 := v135 & 0xff
			var v179 uint64
			if addr := uint64(v178); addr < uint64(len(m3)) {
				v179 = m3[addr] & 0xff
			}
			v181 := (v138 >> 7)
			v183 := v181 & 0x1
			v185 := (v138 << 1) & 0xff
			var v188 uint64
			if v183 != 0 {
				v188 = 0x1b
			} else {
				v188 = 0x0
			}
			v189 := (v185 ^ v188)
			v190 := (v152 >> 7)
			v191 := v190 & 0x1
			v192 := (v152 << 1) & 0xff
			var v193 uint64
			if v191 != 0 {
				v193 = 0x1b
			} else {
				v193 = 0x0
			}
			v194 := (v192 ^ v193)
			v195 := (v194 ^ v152)
			v196 := (v189 ^ v195)
			v197 := (v196 ^ v166)
			v198 := (v197 ^ v179)
			v199 := (v138 ^ v194)
			v200 := (v166 >> 7)
			v201 := v200 & 0x1
			v202 := (v166 << 1) & 0xff
			var v203 uint64
			if v201 != 0 {
				v203 = 0x1b
			} else {
				v203 = 0x0
			}
			v204 := (v202 ^ v203)
			v205 := (v204 ^ v166)
			v206 := (v199 ^ v205)
			v207 := (v206 ^ v179)
			v208 := (v138 ^ v152)
			v209 := (v208 ^ v204)
			v210 := (v179 >> 7)
			v211 := v210 & 0x1
			v212 := (v179 << 1) & 0xff
			var v213 uint64
			if v211 != 0 {
				v213 = 0x1b
			} else {
				v213 = 0x0
			}
			v214 := (v212 ^ v213)
			v215 := (v214 ^ v179)
			v216 := (v209 ^ v215)
			v217 := (v189 ^ v138)
			v218 := (v217 ^ v152)
			v219 := (v218 ^ v166)
			v220 := (v219 ^ v214)
			v221 := v198
			v222 := (v221 << 24) & 0xffffffff
			v223 := v207
			v224 := (v223 << 16) & 0xffffffff
			v225 := (v222 | v224)
			v226 := v216
			v227 := (v226 << 8) & 0xffffffff
			v228 := (v225 | v227)
			v229 := v220
			v230 := (v228 | v229)
			v231 := v138
			v232 := (v231 << 24) & 0xffffffff
			v233 := v152
			v234 := (v233 << 16) & 0xffffffff
			v235 := (v232 | v234)
			v236 := v166
			v237 := (v236 << 8) & 0xffffffff
			v238 := (v235 | v237)
			v239 := v179
			v240 := (v238 | v239)
			var v241 uint64
			if v131 != 0 {
				v241 = v240
			} else {
				v241 = v230
			}
			v242 := v130
			var v243 uint64
			if addr := uint64(v242); addr < uint64(len(m2)) {
				v243 = m2[addr] & 0xffffffff
			}
			v244 := (v241 ^ v243)
			v253 := (v149 >> 7)
			v254 := v253 & 0x1
			v255 := (v149 << 1) & 0xff
			var v256 uint64
			if v254 != 0 {
				v256 = 0x1b
			} else {
				v256 = 0x0
			}
			v257 := (v255 ^ v256)
			v258 := (v163 >> 7)
			v259 := v258 & 0x1
			v260 := (v163 << 1) & 0xff
			var v261 uint64
			if v259 != 0 {
				v261 = 0x1b
			} else {
				v261 = 0x0
			}
			v262 := (v260 ^ v261)
			v263 := (v262 ^ v163)
			v264 := (v257 ^ v263)
			v265 := (v264 ^ v177)
			v266 := (v265 ^ v146)
			v267 := (v149 ^ v262)
			v268 := (v177 >> 7)
			v269 := v268 & 0x1
			v270 := (v177 << 1) & 0xff
			var v271 uint64
			if v269 != 0 {
				v271 = 0x1b
			} else {
				v271 = 0x0
			}
			v272 := (v270 ^ v271)
			v273 := (v272 ^ v177)
			v274 := (v267 ^ v273)
			v275 := (v274 ^ v146)
			v276 := (v149 ^ v163)
			v277 := (v276 ^ v272)
			v278 := (v146 >> 7)
			v279 := v278 & 0x1
			v280 := (v146 << 1) & 0xff
			var v281 uint64
			if v279 != 0 {
				v281 = 0x1b
			} else {
				v281 = 0x0
			}
			v282 := (v280 ^ v281)
			v283 := (v282 ^ v146)
			v284 := (v277 ^ v283)
			v285 := (v257 ^ v149)
			v286 := (v285 ^ v163)
			v287 := (v286 ^ v177)
			v288 := (v287 ^ v282)
			v289 := v266
			v290 := (v289 << 24) & 0xffffffff
			v291 := v275
			v292 := (v291 << 16) & 0xffffffff
			v293 := (v290 | v292)
			v294 := v284
			v295 := (v294 << 8) & 0xffffffff
			v296 := (v293 | v295)
			v297 := v288
			v298 := (v296 | v297)
			v299 := v149
			v300 := (v299 << 24) & 0xffffffff
			v301 := v163
			v302 := (v301 << 16) & 0xffffffff
			v303 := (v300 | v302)
			v304 := v177
			v305 := (v304 << 8) & 0xffffffff
			v306 := (v303 | v305)
			v307 := v146
			v308 := (v306 | v307)
			var v309 uint64
			if v131 != 0 {
				v309 = v308
			} else {
				v309 = v298
			}
			v310 := (v130 + 0x1) & 0x3f
			var v311 uint64
			if addr := uint64(v310); addr < uint64(len(m2)) {
				v311 = m2[addr] & 0xffffffff
			}
			v312 := (v309 ^ v311)
			v319 := (v160 >> 7)
			v320 := v319 & 0x1
			v321 := (v160 << 1) & 0xff
			var v322 uint64
			if v320 != 0 {
				v322 = 0x1b
			} else {
				v322 = 0x0
			}
			v323 := (v321 ^ v322)
			v324 := (v174 >> 7)
			v325 := v324 & 0x1
			v326 := (v174 << 1) & 0xff
			var v327 uint64
			if v325 != 0 {
				v327 = 0x1b
			} else {
				v327 = 0x0
			}
			v328 := (v326 ^ v327)
			v329 := (v328 ^ v174)
			v330 := (v323 ^ v329)
			v331 := (v330 ^ v144)
			v332 := (v331 ^ v157)
			v333 := (v160 ^ v328)
			v334 := (v144 >> 7)
			v335 := v334 & 0x1
			v336 := (v144 << 1) & 0xff
			var v337 uint64
			if v335 != 0 {
				v337 = 0x1b
			} else {
				v337 = 0x0
			}
			v338 := (v336 ^ v337)
			v339 := (v338 ^ v144)
			v340 := (v333 ^ v339)
			v341 := (v340 ^ v157)
			v342 := (v160 ^ v174)
			v343 := (v342 ^ v338)
			v344 := (v157 >> 7)
			v345 := v344 & 0x1
			v346 := (v157 << 1) & 0xff
			var v347 uint64
			if v345 != 0 {
				v347 = 0x1b
			} else {
				v347 = 0x0
			}
			v348 := (v346 ^ v347)
			v349 := (v348 ^ v157)
			v350 := (v343 ^ v349)
			v351 := (v323 ^ v160)
			v352 := (v351 ^ v174)
			v353 := (v352 ^ v144)
			v354 := (v353 ^ v348)
			v355 := v332
			v356 := (v355 << 24) & 0xffffffff
			v357 := v341
			v358 := (v357 << 16) & 0xffffffff
			v359 := (v356 | v358)
			v360 := v350
			v361 := (v360 << 8) & 0xffffffff
			v362 := (v359 | v361)
			v363 := v354
			v364 := (v362 | v363)
			v365 := v160
			v366 := (v365 << 24) & 0xffffffff
			v367 := v174
			v368 := (v367 << 16) & 0xffffffff
			v369 := (v366 | v368)
			v370 := v144
			v371 := (v370 << 8) & 0xffffffff
			v372 := (v369 | v371)
			v373 := v157
			v374 := (v372 | v373)
			var v375 uint64
			if v131 != 0 {
				v375 = v374
			} else {
				v375 = v364
			}
			v377 := (v130 + 0x2) & 0x3f
			var v378 uint64
			if addr := uint64(v377); addr < uint64(len(m2)) {
				v378 = m2[addr] & 0xffffffff
			}
			v379 := (v375 ^ v378)
			v388 := (v171 >> 7)
			v389 := v388 & 0x1
			v390 := (v171 << 1) & 0xff
			var v391 uint64
			if v389 != 0 {
				v391 = 0x1b
			} else {
				v391 = 0x0
			}
			v392 := (v390 ^ v391)
			v393 := (v141 >> 7)
			v394 := v393 & 0x1
			v395 := (v141 << 1) & 0xff
			var v396 uint64
			if v394 != 0 {
				v396 = 0x1b
			} else {
				v396 = 0x0
			}
			v397 := (v395 ^ v396)
			v398 := (v397 ^ v141)
			v399 := (v392 ^ v398)
			v400 := (v399 ^ v155)
			v401 := (v400 ^ v168)
			v402 := (v171 ^ v397)
			v403 := (v155 >> 7)
			v404 := v403 & 0x1
			v405 := (v155 << 1) & 0xff
			var v406 uint64
			if v404 != 0 {
				v406 = 0x1b
			} else {
				v406 = 0x0
			}
			v407 := (v405 ^ v406)
			v408 := (v407 ^ v155)
			v409 := (v402 ^ v408)
			v410 := (v409 ^ v168)
			v411 := (v171 ^ v141)
			v412 := (v411 ^ v407)
			v413 := (v168 >> 7)
			v414 := v413 & 0x1
			v415 := (v168 << 1) & 0xff
			var v416 uint64
			if v414 != 0 {
				v416 = 0x1b
			} else {
				v416 = 0x0
			}
			v417 := (v415 ^ v416)
			v418 := (v417 ^ v168)
			v419 := (v412 ^ v418)
			v420 := (v392 ^ v171)
			v421 := (v420 ^ v141)
			v422 := (v421 ^ v155)
			v423 := (v422 ^ v417)
			v424 := v401
			v425 := (v424 << 24) & 0xffffffff
			v426 := v410
			v427 := (v426 << 16) & 0xffffffff
			v428 := (v425 | v427)
			v429 := v419
			v430 := (v429 << 8) & 0xffffffff
			v431 := (v428 | v430)
			v432 := v423
			v433 := (v431 | v432)
			v434 := v171
			v435 := (v434 << 24) & 0xffffffff
			v436 := v141
			v437 := (v436 << 16) & 0xffffffff
			v438 := (v435 | v437)
			v439 := v155
			v440 := (v439 << 8) & 0xffffffff
			v441 := (v438 | v440)
			v442 := v168
			v443 := (v441 | v442)
			var v444 uint64
			if v131 != 0 {
				v444 = v443
			} else {
				v444 = v433
			}
			v445 := (v130 + 0x3) & 0x3f
			var v446 uint64
			if addr := uint64(v445); addr < uint64(len(m2)) {
				v446 = m2[addr] & 0xffffffff
			}
			v447 := (v444 ^ v446)
			v11 := v10
			v26 := v25
			v80 := v32
			v81 := v80
			v104 := v103
			v126 := v125
			v249 := v244
			v250 := v249
			v315 := v312
			v316 := v315
			v383 := v379
			v384 := v383
			v451 := v447
			v452 := v451
			v457 := v86
			v458 := v457
			var v463 uint64
			if v131 != 0 {
				v463 = 0x5
			} else {
				v463 = 0x4
			}
			v464 := v463
			v466 := v464
			v468 := v466
			v470 := v468
			v471 := v470
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
		case 0x5:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v87 := (v1 - 0x1) & 0xffff
			v88 := (v87 - v86) & 0xffff
			var v90 uint64
			if v86 != 0x0 {
				v90 = 1
			}
			v106 := (v88 << 2) & 0xffff
			v251 := v106
			v252 := v251 & 0x3ff
			v317 := (v106 + 0x1) & 0xffff
			v318 := v317 & 0x3ff
			v386 := (v106 + 0x2) & 0xffff
			v387 := v386 & 0x3ff
			v454 := (v106 + 0x3) & 0xffff
			v455 := v454 & 0x3ff
			v456 := (v86 - 0x1) & 0xffff
			var v459 uint64
			if v86 == 0x0 {
				v459 = 1
			}
			var v461 uint64
			if v459 != 0 {
				v461 = 0x6
			} else {
				v461 = 0x3
			}
			v11 := v10
			v26 := v25
			v80 := v32
			v81 := v80
			v95 := v90
			v96 := v95
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v126 := v125
			v249 := v132
			v250 := v249
			v315 := v133
			v316 := v315
			v383 := v134
			v384 := v383
			v451 := v135
			v452 := v451
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			v462 := v461
			v464 := v462
			v466 := v464
			v468 := v466
			v470 := v468
			v471 := v470
			if addr := uint64(v252); addr < uint64(len(m1)) {
				m1[addr] = v132
			}
			if addr := uint64(v318); addr < uint64(len(m1)) {
				m1[addr] = v133
			}
			if addr := uint64(v387); addr < uint64(len(m1)) {
				m1[addr] = v134
			}
			if addr := uint64(v455); addr < uint64(len(m1)) {
				m1[addr] = v135
			}
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
		case 0x6:
			break loop
		default:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v13 := (0x3 - v6) & 0x3f
			v15 := (v13 + 0x1) & 0x3f
			var v16 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v16 = m0[addr] & 0xffffffff
			}
			var v18 uint64
			if v6 == 0x0 {
				v18 = 1
			}
			v28 := (0x2b - v21) & 0x3f
			v30 := (v28 - 0x4) & 0x3f
			var v31 uint64
			if addr := uint64(v30); addr < uint64(len(m2)) {
				v31 = m2[addr] & 0xffffffff
			}
			v34 := (v32 << 8) & 0xffffffff
			v36 := (v32 >> 24)
			v37 := (v34 | v36)
			v38 := (v37 >> 24)
			v40 := v38 & 0xff
			var v41 uint64
			if addr := uint64(v40); addr < uint64(len(m3)) {
				v41 = m3[addr] & 0xff
			}
			v43 := v41
			v44 := (v43 << 24) & 0xffffffff
			v46 := (v37 >> 16)
			v47 := v46 & 0xff
			var v48 uint64
			if addr := uint64(v47); addr < uint64(len(m3)) {
				v48 = m3[addr] & 0xff
			}
			v49 := v48
			v50 := (v49 << 16) & 0xffffffff
			v51 := (v44 | v50)
			v52 := (v37 >> 8)
			v53 := v52 & 0xff
			var v54 uint64
			if addr := uint64(v53); addr < uint64(len(m3)) {
				v54 = m3[addr] & 0xff
			}
			v55 := v54
			v56 := (v55 << 8) & 0xffffffff
			v57 := (v51 | v56)
			v58 := v37 & 0xff
			var v59 uint64
			if addr := uint64(v58); addr < uint64(len(m3)) {
				v59 = m3[addr] & 0xff
			}
			v60 := v59
			v62 := (v60 << 0) & 0xffffffff
			v63 := (v57 | v62)
			v65 := (v28 >> 2)
			v66 := (v65 - 0x1) & 0x3f
			v68 := v66 & 0xf
			var v69 uint64
			if addr := uint64(v68); addr < uint64(len(m4)) {
				v69 = m4[addr] & 0xffffffff
			}
			v70 := v28 & 0x3
			var v72 uint64
			if v70 == 0x0 {
				v72 = 1
			}
			v73 := (v63 ^ v69)
			var v74 uint64
			if v72 != 0 {
				v74 = v73
			} else {
				v74 = v32
			}
			v75 := (v31 ^ v74)
			var v76 uint64
			if v13 == 0x3 {
				v76 = 1
			}
			v87 := (v1 - 0x1) & 0xffff
			v88 := (v87 - v86) & 0xffff
			var v90 uint64
			if v86 != 0x0 {
				v90 = 1
			}
			var v91 uint64
			if v21 == 0x0 {
				v91 = 1
			}
			v105 := (0x17 - v98) & 0x1f
			v106 := (v88 << 2) & 0xffff
			v107 := v105
			v108 := (v106 + v107) & 0xffff
			v110 := (v108 + 0x5) & 0xffff
			v112 := v110 & 0x3ff
			var v113 uint64
			if addr := uint64(v112); addr < uint64(len(m0)) {
				v113 = m0[addr] & 0xffffffff
			}
			var v114 uint64
			if addr := uint64(v105); addr < uint64(len(m2)) {
				v114 = m2[addr] & 0xffffffff
			}
			v115 := (v113 ^ v114)
			var v117 uint64
			if v98 == 0x0 {
				v117 = 1
			}
			v128 := v120
			v129 := (v128 << 2) & 0x3f
			v130 := (0x28 - v129) & 0x3f
			var v131 uint64
			if v120 == 0x0 {
				v131 = 1
			}
			v136 := (v132 >> 24)
			v137 := v136 & 0xff
			var v138 uint64
			if addr := uint64(v137); addr < uint64(len(m3)) {
				v138 = m3[addr] & 0xff
			}
			v139 := (v132 >> 16)
			v140 := v139 & 0xff
			var v141 uint64
			if addr := uint64(v140); addr < uint64(len(m3)) {
				v141 = m3[addr] & 0xff
			}
			v142 := (v132 >> 8)
			v143 := v142 & 0xff
			var v144 uint64
			if addr := uint64(v143); addr < uint64(len(m3)) {
				v144 = m3[addr] & 0xff
			}
			v145 := v132 & 0xff
			var v146 uint64
			if addr := uint64(v145); addr < uint64(len(m3)) {
				v146 = m3[addr] & 0xff
			}
			v147 := (v133 >> 24)
			v148 := v147 & 0xff
			var v149 uint64
			if addr := uint64(v148); addr < uint64(len(m3)) {
				v149 = m3[addr] & 0xff
			}
			v150 := (v133 >> 16)
			v151 := v150 & 0xff
			var v152 uint64
			if addr := uint64(v151); addr < uint64(len(m3)) {
				v152 = m3[addr] & 0xff
			}
			v153 := (v133 >> 8)
			v154 := v153 & 0xff
			var v155 uint64
			if addr := uint64(v154); addr < uint64(len(m3)) {
				v155 = m3[addr] & 0xff
			}
			v156 := v133 & 0xff
			var v157 uint64
			if addr := uint64(v156); addr < uint64(len(m3)) {
				v157 = m3[addr] & 0xff
			}
			v158 := (v134 >> 24)
			v159 := v158 & 0xff
			var v160 uint64
			if addr := uint64(v159); addr < uint64(len(m3)) {
				v160 = m3[addr] & 0xff
			}
			v161 := (v134 >> 16)
			v162 := v161 & 0xff
			var v163 uint64
			if addr := uint64(v162); addr < uint64(len(m3)) {
				v163 = m3[addr] & 0xff
			}
			v164 := (v134 >> 8)
			v165 := v164 & 0xff
			var v166 uint64
			if addr := uint64(v165); addr < uint64(len(m3)) {
				v166 = m3[addr] & 0xff
			}
			v167 := v134 & 0xff
			var v168 uint64
			if addr := uint64(v167); addr < uint64(len(m3)) {
				v168 = m3[addr] & 0xff
			}
			v169 := (v135 >> 24)
			v170 := v169 & 0xff
			var v171 uint64
			if addr := uint64(v170); addr < uint64(len(m3)) {
				v171 = m3[addr] & 0xff
			}
			v172 := (v135 >> 16)
			v173 := v172 & 0xff
			var v174 uint64
			if addr := uint64(v173); addr < uint64(len(m3)) {
				v174 = m3[addr] & 0xff
			}
			v175 := (v135 >> 8)
			v176 := v175 & 0xff
			var v177 uint64
			if addr := uint64(v176); addr < uint64(len(m3)) {
				v177 = m3[addr] & 0xff
			}
			v178 := v135 & 0xff
			var v179 uint64
			if addr := uint64(v178); addr < uint64(len(m3)) {
				v179 = m3[addr] & 0xff
			}
			v181 := (v138 >> 7)
			v183 := v181 & 0x1
			v185 := (v138 << 1) & 0xff
			var v188 uint64
			if v183 != 0 {
				v188 = 0x1b
			} else {
				v188 = 0x0
			}
			v189 := (v185 ^ v188)
			v190 := (v152 >> 7)
			v191 := v190 & 0x1
			v192 := (v152 << 1) & 0xff
			var v193 uint64
			if v191 != 0 {
				v193 = 0x1b
			} else {
				v193 = 0x0
			}
			v194 := (v192 ^ v193)
			v195 := (v194 ^ v152)
			v196 := (v189 ^ v195)
			v197 := (v196 ^ v166)
			v198 := (v197 ^ v179)
			v199 := (v138 ^ v194)
			v200 := (v166 >> 7)
			v201 := v200 & 0x1
			v202 := (v166 << 1) & 0xff
			var v203 uint64
			if v201 != 0 {
				v203 = 0x1b
			} else {
				v203 = 0x0
			}
			v204 := (v202 ^ v203)
			v205 := (v204 ^ v166)
			v206 := (v199 ^ v205)
			v207 := (v206 ^ v179)
			v208 := (v138 ^ v152)
			v209 := (v208 ^ v204)
			v210 := (v179 >> 7)
			v211 := v210 & 0x1
			v212 := (v179 << 1) & 0xff
			var v213 uint64
			if v211 != 0 {
				v213 = 0x1b
			} else {
				v213 = 0x0
			}
			v214 := (v212 ^ v213)
			v215 := (v214 ^ v179)
			v216 := (v209 ^ v215)
			v217 := (v189 ^ v138)
			v218 := (v217 ^ v152)
			v219 := (v218 ^ v166)
			v220 := (v219 ^ v214)
			v221 := v198
			v222 := (v221 << 24) & 0xffffffff
			v223 := v207
			v224 := (v223 << 16) & 0xffffffff
			v225 := (v222 | v224)
			v226 := v216
			v227 := (v226 << 8) & 0xffffffff
			v228 := (v225 | v227)
			v229 := v220
			v230 := (v228 | v229)
			v231 := v138
			v232 := (v231 << 24) & 0xffffffff
			v233 := v152
			v234 := (v233 << 16) & 0xffffffff
			v235 := (v232 | v234)
			v236 := v166
			v237 := (v236 << 8) & 0xffffffff
			v238 := (v235 | v237)
			v239 := v179
			v240 := (v238 | v239)
			var v241 uint64
			if v131 != 0 {
				v241 = v240
			} else {
				v241 = v230
			}
			v242 := v130
			var v243 uint64
			if addr := uint64(v242); addr < uint64(len(m2)) {
				v243 = m2[addr] & 0xffffffff
			}
			v244 := (v241 ^ v243)
			var v245 uint64
			if v105 == 0x0 {
				v245 = 1
			}
			v251 := v106
			v252 := v251 & 0x3ff
			v253 := (v149 >> 7)
			v254 := v253 & 0x1
			v255 := (v149 << 1) & 0xff
			var v256 uint64
			if v254 != 0 {
				v256 = 0x1b
			} else {
				v256 = 0x0
			}
			v257 := (v255 ^ v256)
			v258 := (v163 >> 7)
			v259 := v258 & 0x1
			v260 := (v163 << 1) & 0xff
			var v261 uint64
			if v259 != 0 {
				v261 = 0x1b
			} else {
				v261 = 0x0
			}
			v262 := (v260 ^ v261)
			v263 := (v262 ^ v163)
			v264 := (v257 ^ v263)
			v265 := (v264 ^ v177)
			v266 := (v265 ^ v146)
			v267 := (v149 ^ v262)
			v268 := (v177 >> 7)
			v269 := v268 & 0x1
			v270 := (v177 << 1) & 0xff
			var v271 uint64
			if v269 != 0 {
				v271 = 0x1b
			} else {
				v271 = 0x0
			}
			v272 := (v270 ^ v271)
			v273 := (v272 ^ v177)
			v274 := (v267 ^ v273)
			v275 := (v274 ^ v146)
			v276 := (v149 ^ v163)
			v277 := (v276 ^ v272)
			v278 := (v146 >> 7)
			v279 := v278 & 0x1
			v280 := (v146 << 1) & 0xff
			var v281 uint64
			if v279 != 0 {
				v281 = 0x1b
			} else {
				v281 = 0x0
			}
			v282 := (v280 ^ v281)
			v283 := (v282 ^ v146)
			v284 := (v277 ^ v283)
			v285 := (v257 ^ v149)
			v286 := (v285 ^ v163)
			v287 := (v286 ^ v177)
			v288 := (v287 ^ v282)
			v289 := v266
			v290 := (v289 << 24) & 0xffffffff
			v291 := v275
			v292 := (v291 << 16) & 0xffffffff
			v293 := (v290 | v292)
			v294 := v284
			v295 := (v294 << 8) & 0xffffffff
			v296 := (v293 | v295)
			v297 := v288
			v298 := (v296 | v297)
			v299 := v149
			v300 := (v299 << 24) & 0xffffffff
			v301 := v163
			v302 := (v301 << 16) & 0xffffffff
			v303 := (v300 | v302)
			v304 := v177
			v305 := (v304 << 8) & 0xffffffff
			v306 := (v303 | v305)
			v307 := v146
			v308 := (v306 | v307)
			var v309 uint64
			if v131 != 0 {
				v309 = v308
			} else {
				v309 = v298
			}
			v310 := (v130 + 0x1) & 0x3f
			var v311 uint64
			if addr := uint64(v310); addr < uint64(len(m2)) {
				v311 = m2[addr] & 0xffffffff
			}
			v312 := (v309 ^ v311)
			var v313 uint64
			if v105 == 0x1 {
				v313 = 1
			}
			v317 := (v106 + 0x1) & 0xffff
			v318 := v317 & 0x3ff
			v319 := (v160 >> 7)
			v320 := v319 & 0x1
			v321 := (v160 << 1) & 0xff
			var v322 uint64
			if v320 != 0 {
				v322 = 0x1b
			} else {
				v322 = 0x0
			}
			v323 := (v321 ^ v322)
			v324 := (v174 >> 7)
			v325 := v324 & 0x1
			v326 := (v174 << 1) & 0xff
			var v327 uint64
			if v325 != 0 {
				v327 = 0x1b
			} else {
				v327 = 0x0
			}
			v328 := (v326 ^ v327)
			v329 := (v328 ^ v174)
			v330 := (v323 ^ v329)
			v331 := (v330 ^ v144)
			v332 := (v331 ^ v157)
			v333 := (v160 ^ v328)
			v334 := (v144 >> 7)
			v335 := v334 & 0x1
			v336 := (v144 << 1) & 0xff
			var v337 uint64
			if v335 != 0 {
				v337 = 0x1b
			} else {
				v337 = 0x0
			}
			v338 := (v336 ^ v337)
			v339 := (v338 ^ v144)
			v340 := (v333 ^ v339)
			v341 := (v340 ^ v157)
			v342 := (v160 ^ v174)
			v343 := (v342 ^ v338)
			v344 := (v157 >> 7)
			v345 := v344 & 0x1
			v346 := (v157 << 1) & 0xff
			var v347 uint64
			if v345 != 0 {
				v347 = 0x1b
			} else {
				v347 = 0x0
			}
			v348 := (v346 ^ v347)
			v349 := (v348 ^ v157)
			v350 := (v343 ^ v349)
			v351 := (v323 ^ v160)
			v352 := (v351 ^ v174)
			v353 := (v352 ^ v144)
			v354 := (v353 ^ v348)
			v355 := v332
			v356 := (v355 << 24) & 0xffffffff
			v357 := v341
			v358 := (v357 << 16) & 0xffffffff
			v359 := (v356 | v358)
			v360 := v350
			v361 := (v360 << 8) & 0xffffffff
			v362 := (v359 | v361)
			v363 := v354
			v364 := (v362 | v363)
			v365 := v160
			v366 := (v365 << 24) & 0xffffffff
			v367 := v174
			v368 := (v367 << 16) & 0xffffffff
			v369 := (v366 | v368)
			v370 := v144
			v371 := (v370 << 8) & 0xffffffff
			v372 := (v369 | v371)
			v373 := v157
			v374 := (v372 | v373)
			var v375 uint64
			if v131 != 0 {
				v375 = v374
			} else {
				v375 = v364
			}
			v377 := (v130 + 0x2) & 0x3f
			var v378 uint64
			if addr := uint64(v377); addr < uint64(len(m2)) {
				v378 = m2[addr] & 0xffffffff
			}
			v379 := (v375 ^ v378)
			var v381 uint64
			if v105 == 0x2 {
				v381 = 1
			}
			v386 := (v106 + 0x2) & 0xffff
			v387 := v386 & 0x3ff
			v388 := (v171 >> 7)
			v389 := v388 & 0x1
			v390 := (v171 << 1) & 0xff
			var v391 uint64
			if v389 != 0 {
				v391 = 0x1b
			} else {
				v391 = 0x0
			}
			v392 := (v390 ^ v391)
			v393 := (v141 >> 7)
			v394 := v393 & 0x1
			v395 := (v141 << 1) & 0xff
			var v396 uint64
			if v394 != 0 {
				v396 = 0x1b
			} else {
				v396 = 0x0
			}
			v397 := (v395 ^ v396)
			v398 := (v397 ^ v141)
			v399 := (v392 ^ v398)
			v400 := (v399 ^ v155)
			v401 := (v400 ^ v168)
			v402 := (v171 ^ v397)
			v403 := (v155 >> 7)
			v404 := v403 & 0x1
			v405 := (v155 << 1) & 0xff
			var v406 uint64
			if v404 != 0 {
				v406 = 0x1b
			} else {
				v406 = 0x0
			}
			v407 := (v405 ^ v406)
			v408 := (v407 ^ v155)
			v409 := (v402 ^ v408)
			v410 := (v409 ^ v168)
			v411 := (v171 ^ v141)
			v412 := (v411 ^ v407)
			v413 := (v168 >> 7)
			v414 := v413 & 0x1
			v415 := (v168 << 1) & 0xff
			var v416 uint64
			if v414 != 0 {
				v416 = 0x1b
			} else {
				v416 = 0x0
			}
			v417 := (v415 ^ v416)
			v418 := (v417 ^ v168)
			v419 := (v412 ^ v418)
			v420 := (v392 ^ v171)
			v421 := (v420 ^ v141)
			v422 := (v421 ^ v155)
			v423 := (v422 ^ v417)
			v424 := v401
			v425 := (v424 << 24) & 0xffffffff
			v426 := v410
			v427 := (v426 << 16) & 0xffffffff
			v428 := (v425 | v427)
			v429 := v419
			v430 := (v429 << 8) & 0xffffffff
			v431 := (v428 | v430)
			v432 := v423
			v433 := (v431 | v432)
			v434 := v171
			v435 := (v434 << 24) & 0xffffffff
			v436 := v141
			v437 := (v436 << 16) & 0xffffffff
			v438 := (v435 | v437)
			v439 := v155
			v440 := (v439 << 8) & 0xffffffff
			v441 := (v438 | v440)
			v442 := v168
			v443 := (v441 | v442)
			var v444 uint64
			if v131 != 0 {
				v444 = v443
			} else {
				v444 = v433
			}
			v445 := (v130 + 0x3) & 0x3f
			var v446 uint64
			if addr := uint64(v445); addr < uint64(len(m2)) {
				v446 = m2[addr] & 0xffffffff
			}
			v447 := (v444 ^ v446)
			var v449 uint64
			if v105 == 0x3 {
				v449 = 1
			}
			v454 := (v106 + 0x3) & 0xffff
			v455 := v454 & 0x3ff
			v456 := (v86 - 0x1) & 0xffff
			var v459 uint64
			if v86 == 0x0 {
				v459 = 1
			}
			var v461 uint64
			if v459 != 0 {
				v461 = 0x6
			} else {
				v461 = 0x3
			}
			var v4 uint64
			if v2 == 0x0 {
				v4 = 1
			}
			var v11 uint64
			if v4 != 0 {
				v11 = 0x3
			} else {
				v11 = v10
			}
			var v17 uint64
			if v2 == 0x1 {
				v17 = 1
			}
			v19 := v17 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := v17 & v76
			var v79 uint64
			if v2 == 0x2 {
				v79 = 1
			}
			var v80 uint64
			if v79 != 0 {
				v80 = v75
			} else {
				v80 = v32
			}
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			var v82 uint64
			if v17 != 0 {
				v82 = v13
			} else {
				v82 = v28
			}
			var v83 uint64
			if v17 != 0 {
				v83 = v16
			} else {
				v83 = v75
			}
			v84 := (v17 | v79)
			v92 := v79 & v91
			var v94 uint64
			if v2 == 0x5 {
				v94 = 1
			}
			v95 := v94 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			var v116 uint64
			if v2 == 0x3 {
				v116 = 1
			}
			v118 := v116 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := v116 & v245
			var v248 uint64
			if v2 == 0x4 {
				v248 = 1
			}
			var v249 uint64
			if v248 != 0 {
				v249 = v244
			} else {
				v249 = v132
			}
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := v116 & v313
			var v315 uint64
			if v248 != 0 {
				v315 = v312
			} else {
				v315 = v133
			}
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := v116 & v381
			var v383 uint64
			if v248 != 0 {
				v383 = v379
			} else {
				v383 = v134
			}
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := v116 & v449
			var v451 uint64
			if v248 != 0 {
				v451 = v447
			} else {
				v451 = v135
			}
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			var v458 uint64
			if v4 != 0 {
				v458 = v87
			} else {
				v458 = v457
			}
			var v462 uint64
			if v94 != 0 {
				v462 = v461
			} else {
				v462 = v2
			}
			var v463 uint64
			if v131 != 0 {
				v463 = 0x5
			} else {
				v463 = v2
			}
			var v464 uint64
			if v248 != 0 {
				v464 = v463
			} else {
				v464 = v462
			}
			var v465 uint64
			if v117 != 0 {
				v465 = 0x4
			} else {
				v465 = v2
			}
			var v466 uint64
			if v116 != 0 {
				v466 = v465
			} else {
				v466 = v464
			}
			var v467 uint64
			if v91 != 0 {
				v467 = 0x3
			} else {
				v467 = v2
			}
			var v468 uint64
			if v79 != 0 {
				v468 = v467
			} else {
				v468 = v466
			}
			var v469 uint64
			if v18 != 0 {
				v469 = 0x2
			} else {
				v469 = v2
			}
			var v470 uint64
			if v17 != 0 {
				v470 = v469
			} else {
				v470 = v468
			}
			var v471 uint64
			if v4 != 0 {
				v471 = 0x1
			} else {
				v471 = v470
			}
			var v472 uint64
			if v2 == 0x6 {
				v472 = 1
			}
			if v472 != 0 {
				break loop
			}
			if v84 != 0 {
				if addr := uint64(v82); addr < uint64(len(m2)) {
					m2[addr] = v83
				}
			}
			if v94 != 0 {
				if addr := uint64(v252); addr < uint64(len(m1)) {
					m1[addr] = v132
				}
			}
			if v94 != 0 {
				if addr := uint64(v318); addr < uint64(len(m1)) {
					m1[addr] = v133
				}
			}
			if v94 != 0 {
				if addr := uint64(v387); addr < uint64(len(m1)) {
					m1[addr] = v134
				}
			}
			if v94 != 0 {
				if addr := uint64(v455); addr < uint64(len(m1)) {
					m1[addr] = v135
				}
			}
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
		}
	}
	vals[2] = v2
	vals[6] = v6
	vals[21] = v21
	vals[32] = v32
	vals[86] = v86
	vals[98] = v98
	vals[120] = v120
	vals[132] = v132
	vals[133] = v133
	vals[134] = v134
	vals[135] = v135
	var v1 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v1 = m0[addr] & 0xffff
	}
	vals[1] = v1
	var v7 uint64
	if v6 != 0x0 {
		v7 = 1
	}
	vals[7] = v7
	v9 := (v6 - 0x1) & 0x7
	vals[9] = v9
	var v10 uint64
	if v7 != 0 {
		v10 = v9
	} else {
		v10 = v6
	}
	vals[10] = v10
	v13 := (0x3 - v6) & 0x3f
	vals[13] = v13
	v15 := (v13 + 0x1) & 0x3f
	vals[15] = v15
	var v16 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v16 = m0[addr] & 0xffffffff
	}
	vals[16] = v16
	var v18 uint64
	if v6 == 0x0 {
		v18 = 1
	}
	vals[18] = v18
	var v23 uint64
	if v21 != 0x0 {
		v23 = 1
	}
	vals[23] = v23
	v24 := (v21 - 0x1) & 0x3f
	vals[24] = v24
	var v25 uint64
	if v23 != 0 {
		v25 = v24
	} else {
		v25 = v21
	}
	vals[25] = v25
	v28 := (0x2b - v21) & 0x3f
	vals[28] = v28
	v30 := (v28 - 0x4) & 0x3f
	vals[30] = v30
	var v31 uint64
	if addr := uint64(v30); addr < uint64(len(m2)) {
		v31 = m2[addr] & 0xffffffff
	}
	vals[31] = v31
	v34 := (v32 << 8) & 0xffffffff
	vals[34] = v34
	v36 := (v32 >> 24)
	vals[36] = v36
	v37 := (v34 | v36)
	vals[37] = v37
	v38 := (v37 >> 24)
	vals[38] = v38
	v40 := v38 & 0xff
	vals[40] = v40
	var v41 uint64
	if addr := uint64(v40); addr < uint64(len(m3)) {
		v41 = m3[addr] & 0xff
	}
	vals[41] = v41
	v43 := v41
	vals[43] = v43
	v44 := (v43 << 24) & 0xffffffff
	vals[44] = v44
	v46 := (v37 >> 16)
	vals[46] = v46
	v47 := v46 & 0xff
	vals[47] = v47
	var v48 uint64
	if addr := uint64(v47); addr < uint64(len(m3)) {
		v48 = m3[addr] & 0xff
	}
	vals[48] = v48
	v49 := v48
	vals[49] = v49
	v50 := (v49 << 16) & 0xffffffff
	vals[50] = v50
	v51 := (v44 | v50)
	vals[51] = v51
	v52 := (v37 >> 8)
	vals[52] = v52
	v53 := v52 & 0xff
	vals[53] = v53
	var v54 uint64
	if addr := uint64(v53); addr < uint64(len(m3)) {
		v54 = m3[addr] & 0xff
	}
	vals[54] = v54
	v55 := v54
	vals[55] = v55
	v56 := (v55 << 8) & 0xffffffff
	vals[56] = v56
	v57 := (v51 | v56)
	vals[57] = v57
	v58 := v37 & 0xff
	vals[58] = v58
	var v59 uint64
	if addr := uint64(v58); addr < uint64(len(m3)) {
		v59 = m3[addr] & 0xff
	}
	vals[59] = v59
	v60 := v59
	vals[60] = v60
	v62 := (v60 << 0) & 0xffffffff
	vals[62] = v62
	v63 := (v57 | v62)
	vals[63] = v63
	v65 := (v28 >> 2)
	vals[65] = v65
	v66 := (v65 - 0x1) & 0x3f
	vals[66] = v66
	v68 := v66 & 0xf
	vals[68] = v68
	var v69 uint64
	if addr := uint64(v68); addr < uint64(len(m4)) {
		v69 = m4[addr] & 0xffffffff
	}
	vals[69] = v69
	v70 := v28 & 0x3
	vals[70] = v70
	var v72 uint64
	if v70 == 0x0 {
		v72 = 1
	}
	vals[72] = v72
	v73 := (v63 ^ v69)
	vals[73] = v73
	var v74 uint64
	if v72 != 0 {
		v74 = v73
	} else {
		v74 = v32
	}
	vals[74] = v74
	v75 := (v31 ^ v74)
	vals[75] = v75
	var v76 uint64
	if v13 == 0x3 {
		v76 = 1
	}
	vals[76] = v76
	v87 := (v1 - 0x1) & 0xffff
	vals[87] = v87
	v88 := (v87 - v86) & 0xffff
	vals[88] = v88
	var v90 uint64
	if v86 != 0x0 {
		v90 = 1
	}
	vals[90] = v90
	var v91 uint64
	if v21 == 0x0 {
		v91 = 1
	}
	vals[91] = v91
	var v100 uint64
	if v98 != 0x0 {
		v100 = 1
	}
	vals[100] = v100
	v102 := (v98 - 0x1) & 0x1f
	vals[102] = v102
	var v103 uint64
	if v100 != 0 {
		v103 = v102
	} else {
		v103 = v98
	}
	vals[103] = v103
	v105 := (0x17 - v98) & 0x1f
	vals[105] = v105
	v106 := (v88 << 2) & 0xffff
	vals[106] = v106
	v107 := v105
	vals[107] = v107
	v108 := (v106 + v107) & 0xffff
	vals[108] = v108
	v110 := (v108 + 0x5) & 0xffff
	vals[110] = v110
	v112 := v110 & 0x3ff
	vals[112] = v112
	var v113 uint64
	if addr := uint64(v112); addr < uint64(len(m0)) {
		v113 = m0[addr] & 0xffffffff
	}
	vals[113] = v113
	var v114 uint64
	if addr := uint64(v105); addr < uint64(len(m2)) {
		v114 = m2[addr] & 0xffffffff
	}
	vals[114] = v114
	v115 := (v113 ^ v114)
	vals[115] = v115
	var v117 uint64
	if v98 == 0x0 {
		v117 = 1
	}
	vals[117] = v117
	var v122 uint64
	if v120 != 0x0 {
		v122 = 1
	}
	vals[122] = v122
	v124 := (v120 - 0x1) & 0xf
	vals[124] = v124
	var v125 uint64
	if v122 != 0 {
		v125 = v124
	} else {
		v125 = v120
	}
	vals[125] = v125
	v128 := v120
	vals[128] = v128
	v129 := (v128 << 2) & 0x3f
	vals[129] = v129
	v130 := (0x28 - v129) & 0x3f
	vals[130] = v130
	var v131 uint64
	if v120 == 0x0 {
		v131 = 1
	}
	vals[131] = v131
	v136 := (v132 >> 24)
	vals[136] = v136
	v137 := v136 & 0xff
	vals[137] = v137
	var v138 uint64
	if addr := uint64(v137); addr < uint64(len(m3)) {
		v138 = m3[addr] & 0xff
	}
	vals[138] = v138
	v139 := (v132 >> 16)
	vals[139] = v139
	v140 := v139 & 0xff
	vals[140] = v140
	var v141 uint64
	if addr := uint64(v140); addr < uint64(len(m3)) {
		v141 = m3[addr] & 0xff
	}
	vals[141] = v141
	v142 := (v132 >> 8)
	vals[142] = v142
	v143 := v142 & 0xff
	vals[143] = v143
	var v144 uint64
	if addr := uint64(v143); addr < uint64(len(m3)) {
		v144 = m3[addr] & 0xff
	}
	vals[144] = v144
	v145 := v132 & 0xff
	vals[145] = v145
	var v146 uint64
	if addr := uint64(v145); addr < uint64(len(m3)) {
		v146 = m3[addr] & 0xff
	}
	vals[146] = v146
	v147 := (v133 >> 24)
	vals[147] = v147
	v148 := v147 & 0xff
	vals[148] = v148
	var v149 uint64
	if addr := uint64(v148); addr < uint64(len(m3)) {
		v149 = m3[addr] & 0xff
	}
	vals[149] = v149
	v150 := (v133 >> 16)
	vals[150] = v150
	v151 := v150 & 0xff
	vals[151] = v151
	var v152 uint64
	if addr := uint64(v151); addr < uint64(len(m3)) {
		v152 = m3[addr] & 0xff
	}
	vals[152] = v152
	v153 := (v133 >> 8)
	vals[153] = v153
	v154 := v153 & 0xff
	vals[154] = v154
	var v155 uint64
	if addr := uint64(v154); addr < uint64(len(m3)) {
		v155 = m3[addr] & 0xff
	}
	vals[155] = v155
	v156 := v133 & 0xff
	vals[156] = v156
	var v157 uint64
	if addr := uint64(v156); addr < uint64(len(m3)) {
		v157 = m3[addr] & 0xff
	}
	vals[157] = v157
	v158 := (v134 >> 24)
	vals[158] = v158
	v159 := v158 & 0xff
	vals[159] = v159
	var v160 uint64
	if addr := uint64(v159); addr < uint64(len(m3)) {
		v160 = m3[addr] & 0xff
	}
	vals[160] = v160
	v161 := (v134 >> 16)
	vals[161] = v161
	v162 := v161 & 0xff
	vals[162] = v162
	var v163 uint64
	if addr := uint64(v162); addr < uint64(len(m3)) {
		v163 = m3[addr] & 0xff
	}
	vals[163] = v163
	v164 := (v134 >> 8)
	vals[164] = v164
	v165 := v164 & 0xff
	vals[165] = v165
	var v166 uint64
	if addr := uint64(v165); addr < uint64(len(m3)) {
		v166 = m3[addr] & 0xff
	}
	vals[166] = v166
	v167 := v134 & 0xff
	vals[167] = v167
	var v168 uint64
	if addr := uint64(v167); addr < uint64(len(m3)) {
		v168 = m3[addr] & 0xff
	}
	vals[168] = v168
	v169 := (v135 >> 24)
	vals[169] = v169
	v170 := v169 & 0xff
	vals[170] = v170
	var v171 uint64
	if addr := uint64(v170); addr < uint64(len(m3)) {
		v171 = m3[addr] & 0xff
	}
	vals[171] = v171
	v172 := (v135 >> 16)
	vals[172] = v172
	v173 := v172 & 0xff
	vals[173] = v173
	var v174 uint64
	if addr := uint64(v173); addr < uint64(len(m3)) {
		v174 = m3[addr] & 0xff
	}
	vals[174] = v174
	v175 := (v135 >> 8)
	vals[175] = v175
	v176 := v175 & 0xff
	vals[176] = v176
	var v177 uint64
	if addr := uint64(v176); addr < uint64(len(m3)) {
		v177 = m3[addr] & 0xff
	}
	vals[177] = v177
	v178 := v135 & 0xff
	vals[178] = v178
	var v179 uint64
	if addr := uint64(v178); addr < uint64(len(m3)) {
		v179 = m3[addr] & 0xff
	}
	vals[179] = v179
	v181 := (v138 >> 7)
	vals[181] = v181
	v183 := v181 & 0x1
	vals[183] = v183
	v185 := (v138 << 1) & 0xff
	vals[185] = v185
	var v188 uint64
	if v183 != 0 {
		v188 = 0x1b
	} else {
		v188 = 0x0
	}
	vals[188] = v188
	v189 := (v185 ^ v188)
	vals[189] = v189
	v190 := (v152 >> 7)
	vals[190] = v190
	v191 := v190 & 0x1
	vals[191] = v191
	v192 := (v152 << 1) & 0xff
	vals[192] = v192
	var v193 uint64
	if v191 != 0 {
		v193 = 0x1b
	} else {
		v193 = 0x0
	}
	vals[193] = v193
	v194 := (v192 ^ v193)
	vals[194] = v194
	v195 := (v194 ^ v152)
	vals[195] = v195
	v196 := (v189 ^ v195)
	vals[196] = v196
	v197 := (v196 ^ v166)
	vals[197] = v197
	v198 := (v197 ^ v179)
	vals[198] = v198
	v199 := (v138 ^ v194)
	vals[199] = v199
	v200 := (v166 >> 7)
	vals[200] = v200
	v201 := v200 & 0x1
	vals[201] = v201
	v202 := (v166 << 1) & 0xff
	vals[202] = v202
	var v203 uint64
	if v201 != 0 {
		v203 = 0x1b
	} else {
		v203 = 0x0
	}
	vals[203] = v203
	v204 := (v202 ^ v203)
	vals[204] = v204
	v205 := (v204 ^ v166)
	vals[205] = v205
	v206 := (v199 ^ v205)
	vals[206] = v206
	v207 := (v206 ^ v179)
	vals[207] = v207
	v208 := (v138 ^ v152)
	vals[208] = v208
	v209 := (v208 ^ v204)
	vals[209] = v209
	v210 := (v179 >> 7)
	vals[210] = v210
	v211 := v210 & 0x1
	vals[211] = v211
	v212 := (v179 << 1) & 0xff
	vals[212] = v212
	var v213 uint64
	if v211 != 0 {
		v213 = 0x1b
	} else {
		v213 = 0x0
	}
	vals[213] = v213
	v214 := (v212 ^ v213)
	vals[214] = v214
	v215 := (v214 ^ v179)
	vals[215] = v215
	v216 := (v209 ^ v215)
	vals[216] = v216
	v217 := (v189 ^ v138)
	vals[217] = v217
	v218 := (v217 ^ v152)
	vals[218] = v218
	v219 := (v218 ^ v166)
	vals[219] = v219
	v220 := (v219 ^ v214)
	vals[220] = v220
	v221 := v198
	vals[221] = v221
	v222 := (v221 << 24) & 0xffffffff
	vals[222] = v222
	v223 := v207
	vals[223] = v223
	v224 := (v223 << 16) & 0xffffffff
	vals[224] = v224
	v225 := (v222 | v224)
	vals[225] = v225
	v226 := v216
	vals[226] = v226
	v227 := (v226 << 8) & 0xffffffff
	vals[227] = v227
	v228 := (v225 | v227)
	vals[228] = v228
	v229 := v220
	vals[229] = v229
	v230 := (v228 | v229)
	vals[230] = v230
	v231 := v138
	vals[231] = v231
	v232 := (v231 << 24) & 0xffffffff
	vals[232] = v232
	v233 := v152
	vals[233] = v233
	v234 := (v233 << 16) & 0xffffffff
	vals[234] = v234
	v235 := (v232 | v234)
	vals[235] = v235
	v236 := v166
	vals[236] = v236
	v237 := (v236 << 8) & 0xffffffff
	vals[237] = v237
	v238 := (v235 | v237)
	vals[238] = v238
	v239 := v179
	vals[239] = v239
	v240 := (v238 | v239)
	vals[240] = v240
	var v241 uint64
	if v131 != 0 {
		v241 = v240
	} else {
		v241 = v230
	}
	vals[241] = v241
	v242 := v130
	vals[242] = v242
	var v243 uint64
	if addr := uint64(v242); addr < uint64(len(m2)) {
		v243 = m2[addr] & 0xffffffff
	}
	vals[243] = v243
	v244 := (v241 ^ v243)
	vals[244] = v244
	var v245 uint64
	if v105 == 0x0 {
		v245 = 1
	}
	vals[245] = v245
	v251 := v106
	vals[251] = v251
	v252 := v251 & 0x3ff
	vals[252] = v252
	v253 := (v149 >> 7)
	vals[253] = v253
	v254 := v253 & 0x1
	vals[254] = v254
	v255 := (v149 << 1) & 0xff
	vals[255] = v255
	var v256 uint64
	if v254 != 0 {
		v256 = 0x1b
	} else {
		v256 = 0x0
	}
	vals[256] = v256
	v257 := (v255 ^ v256)
	vals[257] = v257
	v258 := (v163 >> 7)
	vals[258] = v258
	v259 := v258 & 0x1
	vals[259] = v259
	v260 := (v163 << 1) & 0xff
	vals[260] = v260
	var v261 uint64
	if v259 != 0 {
		v261 = 0x1b
	} else {
		v261 = 0x0
	}
	vals[261] = v261
	v262 := (v260 ^ v261)
	vals[262] = v262
	v263 := (v262 ^ v163)
	vals[263] = v263
	v264 := (v257 ^ v263)
	vals[264] = v264
	v265 := (v264 ^ v177)
	vals[265] = v265
	v266 := (v265 ^ v146)
	vals[266] = v266
	v267 := (v149 ^ v262)
	vals[267] = v267
	v268 := (v177 >> 7)
	vals[268] = v268
	v269 := v268 & 0x1
	vals[269] = v269
	v270 := (v177 << 1) & 0xff
	vals[270] = v270
	var v271 uint64
	if v269 != 0 {
		v271 = 0x1b
	} else {
		v271 = 0x0
	}
	vals[271] = v271
	v272 := (v270 ^ v271)
	vals[272] = v272
	v273 := (v272 ^ v177)
	vals[273] = v273
	v274 := (v267 ^ v273)
	vals[274] = v274
	v275 := (v274 ^ v146)
	vals[275] = v275
	v276 := (v149 ^ v163)
	vals[276] = v276
	v277 := (v276 ^ v272)
	vals[277] = v277
	v278 := (v146 >> 7)
	vals[278] = v278
	v279 := v278 & 0x1
	vals[279] = v279
	v280 := (v146 << 1) & 0xff
	vals[280] = v280
	var v281 uint64
	if v279 != 0 {
		v281 = 0x1b
	} else {
		v281 = 0x0
	}
	vals[281] = v281
	v282 := (v280 ^ v281)
	vals[282] = v282
	v283 := (v282 ^ v146)
	vals[283] = v283
	v284 := (v277 ^ v283)
	vals[284] = v284
	v285 := (v257 ^ v149)
	vals[285] = v285
	v286 := (v285 ^ v163)
	vals[286] = v286
	v287 := (v286 ^ v177)
	vals[287] = v287
	v288 := (v287 ^ v282)
	vals[288] = v288
	v289 := v266
	vals[289] = v289
	v290 := (v289 << 24) & 0xffffffff
	vals[290] = v290
	v291 := v275
	vals[291] = v291
	v292 := (v291 << 16) & 0xffffffff
	vals[292] = v292
	v293 := (v290 | v292)
	vals[293] = v293
	v294 := v284
	vals[294] = v294
	v295 := (v294 << 8) & 0xffffffff
	vals[295] = v295
	v296 := (v293 | v295)
	vals[296] = v296
	v297 := v288
	vals[297] = v297
	v298 := (v296 | v297)
	vals[298] = v298
	v299 := v149
	vals[299] = v299
	v300 := (v299 << 24) & 0xffffffff
	vals[300] = v300
	v301 := v163
	vals[301] = v301
	v302 := (v301 << 16) & 0xffffffff
	vals[302] = v302
	v303 := (v300 | v302)
	vals[303] = v303
	v304 := v177
	vals[304] = v304
	v305 := (v304 << 8) & 0xffffffff
	vals[305] = v305
	v306 := (v303 | v305)
	vals[306] = v306
	v307 := v146
	vals[307] = v307
	v308 := (v306 | v307)
	vals[308] = v308
	var v309 uint64
	if v131 != 0 {
		v309 = v308
	} else {
		v309 = v298
	}
	vals[309] = v309
	v310 := (v130 + 0x1) & 0x3f
	vals[310] = v310
	var v311 uint64
	if addr := uint64(v310); addr < uint64(len(m2)) {
		v311 = m2[addr] & 0xffffffff
	}
	vals[311] = v311
	v312 := (v309 ^ v311)
	vals[312] = v312
	var v313 uint64
	if v105 == 0x1 {
		v313 = 1
	}
	vals[313] = v313
	v317 := (v106 + 0x1) & 0xffff
	vals[317] = v317
	v318 := v317 & 0x3ff
	vals[318] = v318
	v319 := (v160 >> 7)
	vals[319] = v319
	v320 := v319 & 0x1
	vals[320] = v320
	v321 := (v160 << 1) & 0xff
	vals[321] = v321
	var v322 uint64
	if v320 != 0 {
		v322 = 0x1b
	} else {
		v322 = 0x0
	}
	vals[322] = v322
	v323 := (v321 ^ v322)
	vals[323] = v323
	v324 := (v174 >> 7)
	vals[324] = v324
	v325 := v324 & 0x1
	vals[325] = v325
	v326 := (v174 << 1) & 0xff
	vals[326] = v326
	var v327 uint64
	if v325 != 0 {
		v327 = 0x1b
	} else {
		v327 = 0x0
	}
	vals[327] = v327
	v328 := (v326 ^ v327)
	vals[328] = v328
	v329 := (v328 ^ v174)
	vals[329] = v329
	v330 := (v323 ^ v329)
	vals[330] = v330
	v331 := (v330 ^ v144)
	vals[331] = v331
	v332 := (v331 ^ v157)
	vals[332] = v332
	v333 := (v160 ^ v328)
	vals[333] = v333
	v334 := (v144 >> 7)
	vals[334] = v334
	v335 := v334 & 0x1
	vals[335] = v335
	v336 := (v144 << 1) & 0xff
	vals[336] = v336
	var v337 uint64
	if v335 != 0 {
		v337 = 0x1b
	} else {
		v337 = 0x0
	}
	vals[337] = v337
	v338 := (v336 ^ v337)
	vals[338] = v338
	v339 := (v338 ^ v144)
	vals[339] = v339
	v340 := (v333 ^ v339)
	vals[340] = v340
	v341 := (v340 ^ v157)
	vals[341] = v341
	v342 := (v160 ^ v174)
	vals[342] = v342
	v343 := (v342 ^ v338)
	vals[343] = v343
	v344 := (v157 >> 7)
	vals[344] = v344
	v345 := v344 & 0x1
	vals[345] = v345
	v346 := (v157 << 1) & 0xff
	vals[346] = v346
	var v347 uint64
	if v345 != 0 {
		v347 = 0x1b
	} else {
		v347 = 0x0
	}
	vals[347] = v347
	v348 := (v346 ^ v347)
	vals[348] = v348
	v349 := (v348 ^ v157)
	vals[349] = v349
	v350 := (v343 ^ v349)
	vals[350] = v350
	v351 := (v323 ^ v160)
	vals[351] = v351
	v352 := (v351 ^ v174)
	vals[352] = v352
	v353 := (v352 ^ v144)
	vals[353] = v353
	v354 := (v353 ^ v348)
	vals[354] = v354
	v355 := v332
	vals[355] = v355
	v356 := (v355 << 24) & 0xffffffff
	vals[356] = v356
	v357 := v341
	vals[357] = v357
	v358 := (v357 << 16) & 0xffffffff
	vals[358] = v358
	v359 := (v356 | v358)
	vals[359] = v359
	v360 := v350
	vals[360] = v360
	v361 := (v360 << 8) & 0xffffffff
	vals[361] = v361
	v362 := (v359 | v361)
	vals[362] = v362
	v363 := v354
	vals[363] = v363
	v364 := (v362 | v363)
	vals[364] = v364
	v365 := v160
	vals[365] = v365
	v366 := (v365 << 24) & 0xffffffff
	vals[366] = v366
	v367 := v174
	vals[367] = v367
	v368 := (v367 << 16) & 0xffffffff
	vals[368] = v368
	v369 := (v366 | v368)
	vals[369] = v369
	v370 := v144
	vals[370] = v370
	v371 := (v370 << 8) & 0xffffffff
	vals[371] = v371
	v372 := (v369 | v371)
	vals[372] = v372
	v373 := v157
	vals[373] = v373
	v374 := (v372 | v373)
	vals[374] = v374
	var v375 uint64
	if v131 != 0 {
		v375 = v374
	} else {
		v375 = v364
	}
	vals[375] = v375
	v377 := (v130 + 0x2) & 0x3f
	vals[377] = v377
	var v378 uint64
	if addr := uint64(v377); addr < uint64(len(m2)) {
		v378 = m2[addr] & 0xffffffff
	}
	vals[378] = v378
	v379 := (v375 ^ v378)
	vals[379] = v379
	var v381 uint64
	if v105 == 0x2 {
		v381 = 1
	}
	vals[381] = v381
	v386 := (v106 + 0x2) & 0xffff
	vals[386] = v386
	v387 := v386 & 0x3ff
	vals[387] = v387
	v388 := (v171 >> 7)
	vals[388] = v388
	v389 := v388 & 0x1
	vals[389] = v389
	v390 := (v171 << 1) & 0xff
	vals[390] = v390
	var v391 uint64
	if v389 != 0 {
		v391 = 0x1b
	} else {
		v391 = 0x0
	}
	vals[391] = v391
	v392 := (v390 ^ v391)
	vals[392] = v392
	v393 := (v141 >> 7)
	vals[393] = v393
	v394 := v393 & 0x1
	vals[394] = v394
	v395 := (v141 << 1) & 0xff
	vals[395] = v395
	var v396 uint64
	if v394 != 0 {
		v396 = 0x1b
	} else {
		v396 = 0x0
	}
	vals[396] = v396
	v397 := (v395 ^ v396)
	vals[397] = v397
	v398 := (v397 ^ v141)
	vals[398] = v398
	v399 := (v392 ^ v398)
	vals[399] = v399
	v400 := (v399 ^ v155)
	vals[400] = v400
	v401 := (v400 ^ v168)
	vals[401] = v401
	v402 := (v171 ^ v397)
	vals[402] = v402
	v403 := (v155 >> 7)
	vals[403] = v403
	v404 := v403 & 0x1
	vals[404] = v404
	v405 := (v155 << 1) & 0xff
	vals[405] = v405
	var v406 uint64
	if v404 != 0 {
		v406 = 0x1b
	} else {
		v406 = 0x0
	}
	vals[406] = v406
	v407 := (v405 ^ v406)
	vals[407] = v407
	v408 := (v407 ^ v155)
	vals[408] = v408
	v409 := (v402 ^ v408)
	vals[409] = v409
	v410 := (v409 ^ v168)
	vals[410] = v410
	v411 := (v171 ^ v141)
	vals[411] = v411
	v412 := (v411 ^ v407)
	vals[412] = v412
	v413 := (v168 >> 7)
	vals[413] = v413
	v414 := v413 & 0x1
	vals[414] = v414
	v415 := (v168 << 1) & 0xff
	vals[415] = v415
	var v416 uint64
	if v414 != 0 {
		v416 = 0x1b
	} else {
		v416 = 0x0
	}
	vals[416] = v416
	v417 := (v415 ^ v416)
	vals[417] = v417
	v418 := (v417 ^ v168)
	vals[418] = v418
	v419 := (v412 ^ v418)
	vals[419] = v419
	v420 := (v392 ^ v171)
	vals[420] = v420
	v421 := (v420 ^ v141)
	vals[421] = v421
	v422 := (v421 ^ v155)
	vals[422] = v422
	v423 := (v422 ^ v417)
	vals[423] = v423
	v424 := v401
	vals[424] = v424
	v425 := (v424 << 24) & 0xffffffff
	vals[425] = v425
	v426 := v410
	vals[426] = v426
	v427 := (v426 << 16) & 0xffffffff
	vals[427] = v427
	v428 := (v425 | v427)
	vals[428] = v428
	v429 := v419
	vals[429] = v429
	v430 := (v429 << 8) & 0xffffffff
	vals[430] = v430
	v431 := (v428 | v430)
	vals[431] = v431
	v432 := v423
	vals[432] = v432
	v433 := (v431 | v432)
	vals[433] = v433
	v434 := v171
	vals[434] = v434
	v435 := (v434 << 24) & 0xffffffff
	vals[435] = v435
	v436 := v141
	vals[436] = v436
	v437 := (v436 << 16) & 0xffffffff
	vals[437] = v437
	v438 := (v435 | v437)
	vals[438] = v438
	v439 := v155
	vals[439] = v439
	v440 := (v439 << 8) & 0xffffffff
	vals[440] = v440
	v441 := (v438 | v440)
	vals[441] = v441
	v442 := v168
	vals[442] = v442
	v443 := (v441 | v442)
	vals[443] = v443
	var v444 uint64
	if v131 != 0 {
		v444 = v443
	} else {
		v444 = v433
	}
	vals[444] = v444
	v445 := (v130 + 0x3) & 0x3f
	vals[445] = v445
	var v446 uint64
	if addr := uint64(v445); addr < uint64(len(m2)) {
		v446 = m2[addr] & 0xffffffff
	}
	vals[446] = v446
	v447 := (v444 ^ v446)
	vals[447] = v447
	var v449 uint64
	if v105 == 0x3 {
		v449 = 1
	}
	vals[449] = v449
	v454 := (v106 + 0x3) & 0xffff
	vals[454] = v454
	v455 := v454 & 0x3ff
	vals[455] = v455
	v456 := (v86 - 0x1) & 0xffff
	vals[456] = v456
	var v459 uint64
	if v86 == 0x0 {
		v459 = 1
	}
	vals[459] = v459
	var v461 uint64
	if v459 != 0 {
		v461 = 0x6
	} else {
		v461 = 0x3
	}
	vals[461] = v461
	switch v2 {
	case 0x0:
		vals[4] = 0x1
		vals[11] = 0x3
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v87
		vals[458] = v458
		vals[462] = 0x0
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x0
		}
		vals[463] = v463
		vals[464] = 0x0
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x0
		}
		vals[465] = v465
		vals[466] = 0x0
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x0
		}
		vals[467] = v467
		vals[468] = 0x0
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x0
		}
		vals[469] = v469
		vals[470] = 0x0
		vals[471] = 0x1
		vals[472] = 0x0
	case 0x1:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x1
		v19 := v18
		vals[19] = v19
		var v26 uint64
		if v19 != 0 {
			v26 = 0x27
		} else {
			v26 = v25
		}
		vals[26] = v26
		v77 := v76
		vals[77] = v77
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		var v81 uint64
		if v77 != 0 {
			v81 = v16
		} else {
			v81 = v80
		}
		vals[81] = v81
		v82 := v13
		vals[82] = v82
		v83 := v16
		vals[83] = v83
		vals[84] = 0x1
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x1
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x1
		}
		vals[463] = v463
		vals[464] = 0x1
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x1
		}
		vals[465] = v465
		vals[466] = 0x1
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x1
		}
		vals[467] = v467
		vals[468] = 0x1
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x1
		}
		vals[469] = v469
		v470 := v469
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
	case 0x2:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x1
		v80 := v75
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x1
		v92 := v91
		vals[92] = v92
		vals[94] = 0x0
		vals[95] = 0x0
		v96 := v92
		vals[96] = v96
		var v104 uint64
		if v96 != 0 {
			v104 = 0x17
		} else {
			v104 = v103
		}
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x2
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x2
		}
		vals[463] = v463
		vals[464] = 0x2
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x2
		}
		vals[465] = v465
		vals[466] = 0x2
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x2
		}
		vals[467] = v467
		v468 := v467
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x2
		}
		vals[469] = v469
		v470 := v468
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
	case 0x3:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x1
		v118 := v117
		vals[118] = v118
		var v126 uint64
		if v118 != 0 {
			v126 = 0x9
		} else {
			v126 = v125
		}
		vals[126] = v126
		v246 := v245
		vals[246] = v246
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		var v250 uint64
		if v246 != 0 {
			v250 = v115
		} else {
			v250 = v249
		}
		vals[250] = v250
		v314 := v313
		vals[314] = v314
		v315 := v133
		vals[315] = v315
		var v316 uint64
		if v314 != 0 {
			v316 = v115
		} else {
			v316 = v315
		}
		vals[316] = v316
		v382 := v381
		vals[382] = v382
		v383 := v134
		vals[383] = v383
		var v384 uint64
		if v382 != 0 {
			v384 = v115
		} else {
			v384 = v383
		}
		vals[384] = v384
		v450 := v449
		vals[450] = v450
		v451 := v135
		vals[451] = v451
		var v452 uint64
		if v450 != 0 {
			v452 = v115
		} else {
			v452 = v451
		}
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x3
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x3
		}
		vals[463] = v463
		vals[464] = 0x3
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x3
		}
		vals[465] = v465
		v466 := v465
		vals[466] = v466
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x3
		}
		vals[467] = v467
		v468 := v466
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x3
		}
		vals[469] = v469
		v470 := v468
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
	case 0x4:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x1
		v249 := v244
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v312
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v379
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v447
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x4
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x4
		}
		vals[463] = v463
		v464 := v463
		vals[464] = v464
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x4
		}
		vals[465] = v465
		v466 := v464
		vals[466] = v466
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x4
		}
		vals[467] = v467
		v468 := v466
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x4
		}
		vals[469] = v469
		v470 := v468
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
	case 0x5:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x1
		v95 := v90
		vals[95] = v95
		v96 := v95
		vals[96] = v96
		var v104 uint64
		if v96 != 0 {
			v104 = 0x17
		} else {
			v104 = v103
		}
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		var v457 uint64
		if v95 != 0 {
			v457 = v456
		} else {
			v457 = v86
		}
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		v462 := v461
		vals[462] = v462
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x5
		}
		vals[463] = v463
		v464 := v462
		vals[464] = v464
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x5
		}
		vals[465] = v465
		v466 := v464
		vals[466] = v466
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x5
		}
		vals[467] = v467
		v468 := v466
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x5
		}
		vals[469] = v469
		v470 := v468
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
	case 0x6:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x6
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x6
		}
		vals[463] = v463
		vals[464] = 0x6
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x6
		}
		vals[465] = v465
		vals[466] = 0x6
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x6
		}
		vals[467] = v467
		vals[468] = 0x6
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x6
		}
		vals[469] = v469
		vals[470] = 0x6
		vals[471] = 0x6
		vals[472] = 0x1
	default:
		var v4 uint64
		if v2 == 0x0 {
			v4 = 1
		}
		vals[4] = v4
		var v11 uint64
		if v4 != 0 {
			v11 = 0x3
		} else {
			v11 = v10
		}
		vals[11] = v11
		var v17 uint64
		if v2 == 0x1 {
			v17 = 1
		}
		vals[17] = v17
		v19 := v17 & v18
		vals[19] = v19
		var v26 uint64
		if v19 != 0 {
			v26 = 0x27
		} else {
			v26 = v25
		}
		vals[26] = v26
		v77 := v17 & v76
		vals[77] = v77
		var v79 uint64
		if v2 == 0x2 {
			v79 = 1
		}
		vals[79] = v79
		var v80 uint64
		if v79 != 0 {
			v80 = v75
		} else {
			v80 = v32
		}
		vals[80] = v80
		var v81 uint64
		if v77 != 0 {
			v81 = v16
		} else {
			v81 = v80
		}
		vals[81] = v81
		var v82 uint64
		if v17 != 0 {
			v82 = v13
		} else {
			v82 = v28
		}
		vals[82] = v82
		var v83 uint64
		if v17 != 0 {
			v83 = v16
		} else {
			v83 = v75
		}
		vals[83] = v83
		v84 := (v17 | v79)
		vals[84] = v84
		v92 := v79 & v91
		vals[92] = v92
		var v94 uint64
		if v2 == 0x5 {
			v94 = 1
		}
		vals[94] = v94
		v95 := v94 & v90
		vals[95] = v95
		v96 := (v92 | v95)
		vals[96] = v96
		var v104 uint64
		if v96 != 0 {
			v104 = 0x17
		} else {
			v104 = v103
		}
		vals[104] = v104
		var v116 uint64
		if v2 == 0x3 {
			v116 = 1
		}
		vals[116] = v116
		v118 := v116 & v117
		vals[118] = v118
		var v126 uint64
		if v118 != 0 {
			v126 = 0x9
		} else {
			v126 = v125
		}
		vals[126] = v126
		v246 := v116 & v245
		vals[246] = v246
		var v248 uint64
		if v2 == 0x4 {
			v248 = 1
		}
		vals[248] = v248
		var v249 uint64
		if v248 != 0 {
			v249 = v244
		} else {
			v249 = v132
		}
		vals[249] = v249
		var v250 uint64
		if v246 != 0 {
			v250 = v115
		} else {
			v250 = v249
		}
		vals[250] = v250
		v314 := v116 & v313
		vals[314] = v314
		var v315 uint64
		if v248 != 0 {
			v315 = v312
		} else {
			v315 = v133
		}
		vals[315] = v315
		var v316 uint64
		if v314 != 0 {
			v316 = v115
		} else {
			v316 = v315
		}
		vals[316] = v316
		v382 := v116 & v381
		vals[382] = v382
		var v383 uint64
		if v248 != 0 {
			v383 = v379
		} else {
			v383 = v134
		}
		vals[383] = v383
		var v384 uint64
		if v382 != 0 {
			v384 = v115
		} else {
			v384 = v383
		}
		vals[384] = v384
		v450 := v116 & v449
		vals[450] = v450
		var v451 uint64
		if v248 != 0 {
			v451 = v447
		} else {
			v451 = v135
		}
		vals[451] = v451
		var v452 uint64
		if v450 != 0 {
			v452 = v115
		} else {
			v452 = v451
		}
		vals[452] = v452
		var v457 uint64
		if v95 != 0 {
			v457 = v456
		} else {
			v457 = v86
		}
		vals[457] = v457
		var v458 uint64
		if v4 != 0 {
			v458 = v87
		} else {
			v458 = v457
		}
		vals[458] = v458
		var v462 uint64
		if v94 != 0 {
			v462 = v461
		} else {
			v462 = v2
		}
		vals[462] = v462
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = v2
		}
		vals[463] = v463
		var v464 uint64
		if v248 != 0 {
			v464 = v463
		} else {
			v464 = v462
		}
		vals[464] = v464
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = v2
		}
		vals[465] = v465
		var v466 uint64
		if v116 != 0 {
			v466 = v465
		} else {
			v466 = v464
		}
		vals[466] = v466
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = v2
		}
		vals[467] = v467
		var v468 uint64
		if v79 != 0 {
			v468 = v467
		} else {
			v468 = v466
		}
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = v2
		}
		vals[469] = v469
		var v470 uint64
		if v17 != 0 {
			v470 = v469
		} else {
			v470 = v468
		}
		vals[470] = v470
		var v471 uint64
		if v4 != 0 {
			v471 = 0x1
		} else {
			v471 = v470
		}
		vals[471] = v471
		var v472 uint64
		if v2 == 0x6 {
			v472 = 1
		}
		vals[472] = v472
	}
	done := vals[472] != 0
	if vals[84] != 0 {
		if addr := vals[82]; addr < uint64(len(m2)) {
			m2[addr] = vals[83]
		}
	}
	if vals[94] != 0 {
		if addr := vals[252]; addr < uint64(len(m1)) {
			m1[addr] = vals[132]
		}
	}
	if vals[94] != 0 {
		if addr := vals[318]; addr < uint64(len(m1)) {
			m1[addr] = vals[133]
		}
	}
	if vals[94] != 0 {
		if addr := vals[387]; addr < uint64(len(m1)) {
			m1[addr] = vals[134]
		}
	}
	if vals[94] != 0 {
		if addr := vals[455]; addr < uint64(len(m1)) {
			m1[addr] = vals[135]
		}
	}
	l0 := vals[471] & 0x7
	l1 := vals[11] & 0x7
	l2 := vals[26] & 0x3f
	l3 := vals[81] & 0xffffffff
	l4 := vals[458] & 0xffff
	l5 := vals[104] & 0x1f
	l6 := vals[126] & 0xf
	l7 := vals[250] & 0xffffffff
	l8 := vals[316] & 0xffffffff
	l9 := vals[384] & 0xffffffff
	l10 := vals[452] & 0xffffffff
	vals[2] = l0
	vals[6] = l1
	vals[21] = l2
	vals[32] = l3
	vals[86] = l4
	vals[98] = l5
	vals[120] = l6
	vals[132] = l7
	vals[133] = l8
	vals[134] = l9
	vals[135] = l10
	return cycles + 1, done
}

func step_aes_ins(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[552]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	m3 := mems[3]
	m4 := mems[4]
	v2 := vals[2]
	v6 := vals[6]
	v21 := vals[21]
	v32 := vals[32]
	v86 := vals[86]
	v98 := vals[98]
	v120 := vals[120]
	v132 := vals[132]
	v133 := vals[133]
	v134 := vals[134]
	v135 := vals[135]
	v476 := vals[476]
	v481 := vals[481]
	v486 := vals[486]
	v491 := vals[491]
	v496 := vals[496]
	v501 := vals[501]
	v505 := vals[505]
	v508 := vals[508]
	v511 := vals[511]
	v514 := vals[514]
	v517 := vals[517]
	v520 := vals[520]
	v523 := vals[523]
	v526 := vals[526]
	v529 := vals[529]
	v532 := vals[532]
	v535 := vals[535]
	v538 := vals[538]
	v541 := vals[541]
	v544 := vals[544]
	v547 := vals[547]
	v550 := vals[550]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v23 uint64
		if v21 != 0x0 {
			v23 = 1
		}
		v24 := (v21 - 0x1) & 0x3f
		var v25 uint64
		if v23 != 0 {
			v25 = v24
		} else {
			v25 = v21
		}
		var v100 uint64
		if v98 != 0x0 {
			v100 = 1
		}
		v102 := (v98 - 0x1) & 0x1f
		var v103 uint64
		if v100 != 0 {
			v103 = v102
		} else {
			v103 = v98
		}
		var v122 uint64
		if v120 != 0x0 {
			v122 = 1
		}
		v124 := (v120 - 0x1) & 0xf
		var v125 uint64
		if v122 != 0 {
			v125 = v124
		} else {
			v125 = v120
		}
		switch v2 {
		case 0x0:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			v87 := (v1 - 0x1) & 0xffff
			v477 := (v476 + 0x1) & 0xffffff
			v509 := (v508 + 0x1) & 0xffffff
			v512 := (v511 + 0x3) & 0xffffff
			v515 := (v514 + v6) & 0xffffff
			v527 := (v526 + 0x1) & 0xffffff
			v530 := (v529 + v87) & 0xffffff
			v533 := (v532 + v86) & 0xffffff
			v26 := v25
			v80 := v32
			v81 := v80
			v104 := v103
			v126 := v125
			v249 := v132
			v250 := v249
			v315 := v133
			v316 := v315
			v383 := v134
			v384 := v383
			v451 := v135
			v452 := v451
			v458 := v87
			v478 := v477
			v483 := v481
			v488 := v486
			v493 := v491
			v498 := v496
			v503 := v501
			v507 := v505
			v510 := v509
			v513 := v512
			v516 := v515
			v519 := v517
			v522 := v520
			v525 := v523
			v528 := v527
			v531 := v530
			v534 := v533
			v537 := v535
			v540 := v538
			v543 := v541
			v546 := v544
			v549 := v547
			v552 := v550
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			n11 := v478
			n12 := v483
			n13 := v488
			n14 := v493
			n15 := v498
			n16 := v503
			n17 := v507
			n18 := v510
			n19 := v513
			n20 := v516
			n21 := v519
			n22 := v522
			n23 := v525
			n24 := v528
			n25 := v531
			n26 := v534
			n27 := v537
			n28 := v540
			n29 := v543
			n30 := v546
			n31 := v549
			n32 := v552
			v2 = 0x1
			v6 = 0x3
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
			v476 = n11
			v481 = n12
			v486 = n13
			v491 = n14
			v496 = n15
			v501 = n16
			v505 = n17
			v508 = n18
			v511 = n19
			v514 = n20
			v517 = n21
			v520 = n22
			v523 = n23
			v526 = n24
			v529 = n25
			v532 = n26
			v535 = n27
			v538 = n28
			v541 = n29
			v544 = n30
			v547 = n31
			v550 = n32
		case 0x1:
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v13 := (0x3 - v6) & 0x3f
			v15 := (v13 + 0x1) & 0x3f
			var v16 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v16 = m0[addr] & 0xffffffff
			}
			var v18 uint64
			if v6 == 0x0 {
				v18 = 1
			}
			var v76 uint64
			if v13 == 0x3 {
				v76 = 1
			}
			v482 := (v481 + 0x1) & 0xffffff
			v518 := (v517 + 0x1) & 0xffffff
			v521 := (v520 + 0x27) & 0xffffff
			v524 := (v523 + v21) & 0xffffff
			v11 := v10
			v19 := v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := v76
			v80 := v32
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			v82 := v13
			v83 := v16
			v104 := v103
			v126 := v125
			v249 := v132
			v250 := v249
			v315 := v133
			v316 := v315
			v383 := v134
			v384 := v383
			v451 := v135
			v452 := v451
			v457 := v86
			v458 := v457
			var v469 uint64
			if v18 != 0 {
				v469 = 0x2
			} else {
				v469 = 0x1
			}
			v470 := v469
			v471 := v470
			v478 := v476
			var v479 uint64
			if v471 == 0x2 {
				v479 = 1
			}
			v480 := v479
			var v483 uint64
			if v480 != 0 {
				v483 = v482
			} else {
				v483 = v481
			}
			v488 := v486
			v493 := v491
			v498 := v496
			v503 := v501
			v507 := v505
			v510 := v508
			v513 := v511
			v516 := v514
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			v528 := v526
			v531 := v529
			v534 := v532
			v537 := v535
			v540 := v538
			v543 := v541
			v546 := v544
			v549 := v547
			v552 := v550
			if addr := uint64(v82); addr < uint64(len(m2)) {
				m2[addr] = v83
			}
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			n11 := v478
			n12 := v483
			n13 := v488
			n14 := v493
			n15 := v498
			n16 := v503
			n17 := v507
			n18 := v510
			n19 := v513
			n20 := v516
			n21 := v519
			n22 := v522
			n23 := v525
			n24 := v528
			n25 := v531
			n26 := v534
			n27 := v537
			n28 := v540
			n29 := v543
			n30 := v546
			n31 := v549
			n32 := v552
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
			v476 = n11
			v481 = n12
			v486 = n13
			v491 = n14
			v496 = n15
			v501 = n16
			v505 = n17
			v508 = n18
			v511 = n19
			v514 = n20
			v517 = n21
			v520 = n22
			v523 = n23
			v526 = n24
			v529 = n25
			v532 = n26
			v535 = n27
			v538 = n28
			v541 = n29
			v544 = n30
			v547 = n31
			v550 = n32
		case 0x2:
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v28 := (0x2b - v21) & 0x3f
			v30 := (v28 - 0x4) & 0x3f
			var v31 uint64
			if addr := uint64(v30); addr < uint64(len(m2)) {
				v31 = m2[addr] & 0xffffffff
			}
			v34 := (v32 << 8) & 0xffffffff
			v36 := (v32 >> 24)
			v37 := (v34 | v36)
			v38 := (v37 >> 24)
			v40 := v38 & 0xff
			var v41 uint64
			if addr := uint64(v40); addr < uint64(len(m3)) {
				v41 = m3[addr] & 0xff
			}
			v43 := v41
			v44 := (v43 << 24) & 0xffffffff
			v46 := (v37 >> 16)
			v47 := v46 & 0xff
			var v48 uint64
			if addr := uint64(v47); addr < uint64(len(m3)) {
				v48 = m3[addr] & 0xff
			}
			v49 := v48
			v50 := (v49 << 16) & 0xffffffff
			v51 := (v44 | v50)
			v52 := (v37 >> 8)
			v53 := v52 & 0xff
			var v54 uint64
			if addr := uint64(v53); addr < uint64(len(m3)) {
				v54 = m3[addr] & 0xff
			}
			v55 := v54
			v56 := (v55 << 8) & 0xffffffff
			v57 := (v51 | v56)
			v58 := v37 & 0xff
			var v59 uint64
			if addr := uint64(v58); addr < uint64(len(m3)) {
				v59 = m3[addr] & 0xff
			}
			v60 := v59
			v62 := (v60 << 0) & 0xffffffff
			v63 := (v57 | v62)
			v65 := (v28 >> 2)
			v66 := (v65 - 0x1) & 0x3f
			v68 := v66 & 0xf
			var v69 uint64
			if addr := uint64(v68); addr < uint64(len(m4)) {
				v69 = m4[addr] & 0xffffffff
			}
			v70 := v28 & 0x3
			var v72 uint64
			if v70 == 0x0 {
				v72 = 1
			}
			v73 := (v63 ^ v69)
			var v74 uint64
			if v72 != 0 {
				v74 = v73
			} else {
				v74 = v32
			}
			v75 := (v31 ^ v74)
			var v91 uint64
			if v21 == 0x0 {
				v91 = 1
			}
			v487 := (v486 + 0x1) & 0xffffff
			v536 := (v535 + 0x1) & 0xffffff
			v539 := (v538 + 0x17) & 0xffffff
			v542 := (v541 + v98) & 0xffffff
			v11 := v10
			v26 := v25
			v80 := v75
			v81 := v80
			v82 := v28
			v83 := v75
			v92 := v91
			v96 := v92
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v126 := v125
			v249 := v132
			v250 := v249
			v315 := v133
			v316 := v315
			v383 := v134
			v384 := v383
			v451 := v135
			v452 := v451
			v457 := v86
			v458 := v457
			var v467 uint64
			if v91 != 0 {
				v467 = 0x3
			} else {
				v467 = 0x2
			}
			v468 := v467
			v470 := v468
			v471 := v470
			v478 := v476
			v483 := v481
			var v484 uint64
			if v471 == 0x3 {
				v484 = 1
			}
			v485 := v484
			var v488 uint64
			if v485 != 0 {
				v488 = v487
			} else {
				v488 = v486
			}
			v493 := v491
			v498 := v496
			v503 := v501
			v507 := v505
			v510 := v508
			v513 := v511
			v516 := v514
			v519 := v517
			v522 := v520
			v525 := v523
			v528 := v526
			v531 := v529
			v534 := v532
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			v546 := v544
			v549 := v547
			v552 := v550
			if addr := uint64(v82); addr < uint64(len(m2)) {
				m2[addr] = v83
			}
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			n11 := v478
			n12 := v483
			n13 := v488
			n14 := v493
			n15 := v498
			n16 := v503
			n17 := v507
			n18 := v510
			n19 := v513
			n20 := v516
			n21 := v519
			n22 := v522
			n23 := v525
			n24 := v528
			n25 := v531
			n26 := v534
			n27 := v537
			n28 := v540
			n29 := v543
			n30 := v546
			n31 := v549
			n32 := v552
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
			v476 = n11
			v481 = n12
			v486 = n13
			v491 = n14
			v496 = n15
			v501 = n16
			v505 = n17
			v508 = n18
			v511 = n19
			v514 = n20
			v517 = n21
			v520 = n22
			v523 = n23
			v526 = n24
			v529 = n25
			v532 = n26
			v535 = n27
			v538 = n28
			v541 = n29
			v544 = n30
			v547 = n31
			v550 = n32
		case 0x3:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v87 := (v1 - 0x1) & 0xffff
			v88 := (v87 - v86) & 0xffff
			v105 := (0x17 - v98) & 0x1f
			v106 := (v88 << 2) & 0xffff
			v107 := v105
			v108 := (v106 + v107) & 0xffff
			v110 := (v108 + 0x5) & 0xffff
			v112 := v110 & 0x3ff
			var v113 uint64
			if addr := uint64(v112); addr < uint64(len(m0)) {
				v113 = m0[addr] & 0xffffffff
			}
			var v114 uint64
			if addr := uint64(v105); addr < uint64(len(m2)) {
				v114 = m2[addr] & 0xffffffff
			}
			v115 := (v113 ^ v114)
			var v117 uint64
			if v98 == 0x0 {
				v117 = 1
			}
			var v245 uint64
			if v105 == 0x0 {
				v245 = 1
			}
			var v313 uint64
			if v105 == 0x1 {
				v313 = 1
			}
			var v381 uint64
			if v105 == 0x2 {
				v381 = 1
			}
			var v449 uint64
			if v105 == 0x3 {
				v449 = 1
			}
			v492 := (v491 + 0x1) & 0xffffff
			v545 := (v544 + 0x1) & 0xffffff
			v548 := (v547 + 0x9) & 0xffffff
			v551 := (v550 + v120) & 0xffffff
			v11 := v10
			v26 := v25
			v80 := v32
			v81 := v80
			v104 := v103
			v118 := v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := v245
			v249 := v132
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := v313
			v315 := v133
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := v381
			v383 := v134
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := v449
			v451 := v135
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			v457 := v86
			v458 := v457
			var v465 uint64
			if v117 != 0 {
				v465 = 0x4
			} else {
				v465 = 0x3
			}
			v466 := v465
			v468 := v466
			v470 := v468
			v471 := v470
			v478 := v476
			v483 := v481
			v488 := v486
			var v489 uint64
			if v471 == 0x4 {
				v489 = 1
			}
			v490 := v489
			var v493 uint64
			if v490 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			v498 := v496
			v503 := v501
			v507 := v505
			v510 := v508
			v513 := v511
			v516 := v514
			v519 := v517
			v522 := v520
			v525 := v523
			v528 := v526
			v531 := v529
			v534 := v532
			v537 := v535
			v540 := v538
			v543 := v541
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			n11 := v478
			n12 := v483
			n13 := v488
			n14 := v493
			n15 := v498
			n16 := v503
			n17 := v507
			n18 := v510
			n19 := v513
			n20 := v516
			n21 := v519
			n22 := v522
			n23 := v525
			n24 := v528
			n25 := v531
			n26 := v534
			n27 := v537
			n28 := v540
			n29 := v543
			n30 := v546
			n31 := v549
			n32 := v552
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
			v476 = n11
			v481 = n12
			v486 = n13
			v491 = n14
			v496 = n15
			v501 = n16
			v505 = n17
			v508 = n18
			v511 = n19
			v514 = n20
			v517 = n21
			v520 = n22
			v523 = n23
			v526 = n24
			v529 = n25
			v532 = n26
			v535 = n27
			v538 = n28
			v541 = n29
			v544 = n30
			v547 = n31
			v550 = n32
		case 0x4:
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v128 := v120
			v129 := (v128 << 2) & 0x3f
			v130 := (0x28 - v129) & 0x3f
			var v131 uint64
			if v120 == 0x0 {
				v131 = 1
			}
			v136 := (v132 >> 24)
			v137 := v136 & 0xff
			var v138 uint64
			if addr := uint64(v137); addr < uint64(len(m3)) {
				v138 = m3[addr] & 0xff
			}
			v139 := (v132 >> 16)
			v140 := v139 & 0xff
			var v141 uint64
			if addr := uint64(v140); addr < uint64(len(m3)) {
				v141 = m3[addr] & 0xff
			}
			v142 := (v132 >> 8)
			v143 := v142 & 0xff
			var v144 uint64
			if addr := uint64(v143); addr < uint64(len(m3)) {
				v144 = m3[addr] & 0xff
			}
			v145 := v132 & 0xff
			var v146 uint64
			if addr := uint64(v145); addr < uint64(len(m3)) {
				v146 = m3[addr] & 0xff
			}
			v147 := (v133 >> 24)
			v148 := v147 & 0xff
			var v149 uint64
			if addr := uint64(v148); addr < uint64(len(m3)) {
				v149 = m3[addr] & 0xff
			}
			v150 := (v133 >> 16)
			v151 := v150 & 0xff
			var v152 uint64
			if addr := uint64(v151); addr < uint64(len(m3)) {
				v152 = m3[addr] & 0xff
			}
			v153 := (v133 >> 8)
			v154 := v153 & 0xff
			var v155 uint64
			if addr := uint64(v154); addr < uint64(len(m3)) {
				v155 = m3[addr] & 0xff
			}
			v156 := v133 & 0xff
			var v157 uint64
			if addr := uint64(v156); addr < uint64(len(m3)) {
				v157 = m3[addr] & 0xff
			}
			v158 := (v134 >> 24)
			v159 := v158 & 0xff
			var v160 uint64
			if addr := uint64(v159); addr < uint64(len(m3)) {
				v160 = m3[addr] & 0xff
			}
			v161 := (v134 >> 16)
			v162 := v161 & 0xff
			var v163 uint64
			if addr := uint64(v162); addr < uint64(len(m3)) {
				v163 = m3[addr] & 0xff
			}
			v164 := (v134 >> 8)
			v165 := v164 & 0xff
			var v166 uint64
			if addr := uint64(v165); addr < uint64(len(m3)) {
				v166 = m3[addr] & 0xff
			}
			v167 := v134 & 0xff
			var v168 uint64
			if addr := uint64(v167); addr < uint64(len(m3)) {
				v168 = m3[addr] & 0xff
			}
			v169 := (v135 >> 24)
			v170 := v169 & 0xff
			var v171 uint64
			if addr := uint64(v170); addr < uint64(len(m3)) {
				v171 = m3[addr] & 0xff
			}
			v172 := (v135 >> 16)
			v173 := v172 & 0xff
			var v174 uint64
			if addr := uint64(v173); addr < uint64(len(m3)) {
				v174 = m3[addr] & 0xff
			}
			v175 := (v135 >> 8)
			v176 := v175 & 0xff
			var v177 uint64
			if addr := uint64(v176); addr < uint64(len(m3)) {
				v177 = m3[addr] & 0xff
			}
			v178 := v135 & 0xff
			var v179 uint64
			if addr := uint64(v178); addr < uint64(len(m3)) {
				v179 = m3[addr] & 0xff
			}
			v181 := (v138 >> 7)
			v183 := v181 & 0x1
			v185 := (v138 << 1) & 0xff
			var v188 uint64
			if v183 != 0 {
				v188 = 0x1b
			} else {
				v188 = 0x0
			}
			v189 := (v185 ^ v188)
			v190 := (v152 >> 7)
			v191 := v190 & 0x1
			v192 := (v152 << 1) & 0xff
			var v193 uint64
			if v191 != 0 {
				v193 = 0x1b
			} else {
				v193 = 0x0
			}
			v194 := (v192 ^ v193)
			v195 := (v194 ^ v152)
			v196 := (v189 ^ v195)
			v197 := (v196 ^ v166)
			v198 := (v197 ^ v179)
			v199 := (v138 ^ v194)
			v200 := (v166 >> 7)
			v201 := v200 & 0x1
			v202 := (v166 << 1) & 0xff
			var v203 uint64
			if v201 != 0 {
				v203 = 0x1b
			} else {
				v203 = 0x0
			}
			v204 := (v202 ^ v203)
			v205 := (v204 ^ v166)
			v206 := (v199 ^ v205)
			v207 := (v206 ^ v179)
			v208 := (v138 ^ v152)
			v209 := (v208 ^ v204)
			v210 := (v179 >> 7)
			v211 := v210 & 0x1
			v212 := (v179 << 1) & 0xff
			var v213 uint64
			if v211 != 0 {
				v213 = 0x1b
			} else {
				v213 = 0x0
			}
			v214 := (v212 ^ v213)
			v215 := (v214 ^ v179)
			v216 := (v209 ^ v215)
			v217 := (v189 ^ v138)
			v218 := (v217 ^ v152)
			v219 := (v218 ^ v166)
			v220 := (v219 ^ v214)
			v221 := v198
			v222 := (v221 << 24) & 0xffffffff
			v223 := v207
			v224 := (v223 << 16) & 0xffffffff
			v225 := (v222 | v224)
			v226 := v216
			v227 := (v226 << 8) & 0xffffffff
			v228 := (v225 | v227)
			v229 := v220
			v230 := (v228 | v229)
			v231 := v138
			v232 := (v231 << 24) & 0xffffffff
			v233 := v152
			v234 := (v233 << 16) & 0xffffffff
			v235 := (v232 | v234)
			v236 := v166
			v237 := (v236 << 8) & 0xffffffff
			v238 := (v235 | v237)
			v239 := v179
			v240 := (v238 | v239)
			var v241 uint64
			if v131 != 0 {
				v241 = v240
			} else {
				v241 = v230
			}
			v242 := v130
			var v243 uint64
			if addr := uint64(v242); addr < uint64(len(m2)) {
				v243 = m2[addr] & 0xffffffff
			}
			v244 := (v241 ^ v243)
			v253 := (v149 >> 7)
			v254 := v253 & 0x1
			v255 := (v149 << 1) & 0xff
			var v256 uint64
			if v254 != 0 {
				v256 = 0x1b
			} else {
				v256 = 0x0
			}
			v257 := (v255 ^ v256)
			v258 := (v163 >> 7)
			v259 := v258 & 0x1
			v260 := (v163 << 1) & 0xff
			var v261 uint64
			if v259 != 0 {
				v261 = 0x1b
			} else {
				v261 = 0x0
			}
			v262 := (v260 ^ v261)
			v263 := (v262 ^ v163)
			v264 := (v257 ^ v263)
			v265 := (v264 ^ v177)
			v266 := (v265 ^ v146)
			v267 := (v149 ^ v262)
			v268 := (v177 >> 7)
			v269 := v268 & 0x1
			v270 := (v177 << 1) & 0xff
			var v271 uint64
			if v269 != 0 {
				v271 = 0x1b
			} else {
				v271 = 0x0
			}
			v272 := (v270 ^ v271)
			v273 := (v272 ^ v177)
			v274 := (v267 ^ v273)
			v275 := (v274 ^ v146)
			v276 := (v149 ^ v163)
			v277 := (v276 ^ v272)
			v278 := (v146 >> 7)
			v279 := v278 & 0x1
			v280 := (v146 << 1) & 0xff
			var v281 uint64
			if v279 != 0 {
				v281 = 0x1b
			} else {
				v281 = 0x0
			}
			v282 := (v280 ^ v281)
			v283 := (v282 ^ v146)
			v284 := (v277 ^ v283)
			v285 := (v257 ^ v149)
			v286 := (v285 ^ v163)
			v287 := (v286 ^ v177)
			v288 := (v287 ^ v282)
			v289 := v266
			v290 := (v289 << 24) & 0xffffffff
			v291 := v275
			v292 := (v291 << 16) & 0xffffffff
			v293 := (v290 | v292)
			v294 := v284
			v295 := (v294 << 8) & 0xffffffff
			v296 := (v293 | v295)
			v297 := v288
			v298 := (v296 | v297)
			v299 := v149
			v300 := (v299 << 24) & 0xffffffff
			v301 := v163
			v302 := (v301 << 16) & 0xffffffff
			v303 := (v300 | v302)
			v304 := v177
			v305 := (v304 << 8) & 0xffffffff
			v306 := (v303 | v305)
			v307 := v146
			v308 := (v306 | v307)
			var v309 uint64
			if v131 != 0 {
				v309 = v308
			} else {
				v309 = v298
			}
			v310 := (v130 + 0x1) & 0x3f
			var v311 uint64
			if addr := uint64(v310); addr < uint64(len(m2)) {
				v311 = m2[addr] & 0xffffffff
			}
			v312 := (v309 ^ v311)
			v319 := (v160 >> 7)
			v320 := v319 & 0x1
			v321 := (v160 << 1) & 0xff
			var v322 uint64
			if v320 != 0 {
				v322 = 0x1b
			} else {
				v322 = 0x0
			}
			v323 := (v321 ^ v322)
			v324 := (v174 >> 7)
			v325 := v324 & 0x1
			v326 := (v174 << 1) & 0xff
			var v327 uint64
			if v325 != 0 {
				v327 = 0x1b
			} else {
				v327 = 0x0
			}
			v328 := (v326 ^ v327)
			v329 := (v328 ^ v174)
			v330 := (v323 ^ v329)
			v331 := (v330 ^ v144)
			v332 := (v331 ^ v157)
			v333 := (v160 ^ v328)
			v334 := (v144 >> 7)
			v335 := v334 & 0x1
			v336 := (v144 << 1) & 0xff
			var v337 uint64
			if v335 != 0 {
				v337 = 0x1b
			} else {
				v337 = 0x0
			}
			v338 := (v336 ^ v337)
			v339 := (v338 ^ v144)
			v340 := (v333 ^ v339)
			v341 := (v340 ^ v157)
			v342 := (v160 ^ v174)
			v343 := (v342 ^ v338)
			v344 := (v157 >> 7)
			v345 := v344 & 0x1
			v346 := (v157 << 1) & 0xff
			var v347 uint64
			if v345 != 0 {
				v347 = 0x1b
			} else {
				v347 = 0x0
			}
			v348 := (v346 ^ v347)
			v349 := (v348 ^ v157)
			v350 := (v343 ^ v349)
			v351 := (v323 ^ v160)
			v352 := (v351 ^ v174)
			v353 := (v352 ^ v144)
			v354 := (v353 ^ v348)
			v355 := v332
			v356 := (v355 << 24) & 0xffffffff
			v357 := v341
			v358 := (v357 << 16) & 0xffffffff
			v359 := (v356 | v358)
			v360 := v350
			v361 := (v360 << 8) & 0xffffffff
			v362 := (v359 | v361)
			v363 := v354
			v364 := (v362 | v363)
			v365 := v160
			v366 := (v365 << 24) & 0xffffffff
			v367 := v174
			v368 := (v367 << 16) & 0xffffffff
			v369 := (v366 | v368)
			v370 := v144
			v371 := (v370 << 8) & 0xffffffff
			v372 := (v369 | v371)
			v373 := v157
			v374 := (v372 | v373)
			var v375 uint64
			if v131 != 0 {
				v375 = v374
			} else {
				v375 = v364
			}
			v377 := (v130 + 0x2) & 0x3f
			var v378 uint64
			if addr := uint64(v377); addr < uint64(len(m2)) {
				v378 = m2[addr] & 0xffffffff
			}
			v379 := (v375 ^ v378)
			v388 := (v171 >> 7)
			v389 := v388 & 0x1
			v390 := (v171 << 1) & 0xff
			var v391 uint64
			if v389 != 0 {
				v391 = 0x1b
			} else {
				v391 = 0x0
			}
			v392 := (v390 ^ v391)
			v393 := (v141 >> 7)
			v394 := v393 & 0x1
			v395 := (v141 << 1) & 0xff
			var v396 uint64
			if v394 != 0 {
				v396 = 0x1b
			} else {
				v396 = 0x0
			}
			v397 := (v395 ^ v396)
			v398 := (v397 ^ v141)
			v399 := (v392 ^ v398)
			v400 := (v399 ^ v155)
			v401 := (v400 ^ v168)
			v402 := (v171 ^ v397)
			v403 := (v155 >> 7)
			v404 := v403 & 0x1
			v405 := (v155 << 1) & 0xff
			var v406 uint64
			if v404 != 0 {
				v406 = 0x1b
			} else {
				v406 = 0x0
			}
			v407 := (v405 ^ v406)
			v408 := (v407 ^ v155)
			v409 := (v402 ^ v408)
			v410 := (v409 ^ v168)
			v411 := (v171 ^ v141)
			v412 := (v411 ^ v407)
			v413 := (v168 >> 7)
			v414 := v413 & 0x1
			v415 := (v168 << 1) & 0xff
			var v416 uint64
			if v414 != 0 {
				v416 = 0x1b
			} else {
				v416 = 0x0
			}
			v417 := (v415 ^ v416)
			v418 := (v417 ^ v168)
			v419 := (v412 ^ v418)
			v420 := (v392 ^ v171)
			v421 := (v420 ^ v141)
			v422 := (v421 ^ v155)
			v423 := (v422 ^ v417)
			v424 := v401
			v425 := (v424 << 24) & 0xffffffff
			v426 := v410
			v427 := (v426 << 16) & 0xffffffff
			v428 := (v425 | v427)
			v429 := v419
			v430 := (v429 << 8) & 0xffffffff
			v431 := (v428 | v430)
			v432 := v423
			v433 := (v431 | v432)
			v434 := v171
			v435 := (v434 << 24) & 0xffffffff
			v436 := v141
			v437 := (v436 << 16) & 0xffffffff
			v438 := (v435 | v437)
			v439 := v155
			v440 := (v439 << 8) & 0xffffffff
			v441 := (v438 | v440)
			v442 := v168
			v443 := (v441 | v442)
			var v444 uint64
			if v131 != 0 {
				v444 = v443
			} else {
				v444 = v433
			}
			v445 := (v130 + 0x3) & 0x3f
			var v446 uint64
			if addr := uint64(v445); addr < uint64(len(m2)) {
				v446 = m2[addr] & 0xffffffff
			}
			v447 := (v444 ^ v446)
			v497 := (v496 + 0x1) & 0xffffff
			v11 := v10
			v26 := v25
			v80 := v32
			v81 := v80
			v104 := v103
			v126 := v125
			v249 := v244
			v250 := v249
			v315 := v312
			v316 := v315
			v383 := v379
			v384 := v383
			v451 := v447
			v452 := v451
			v457 := v86
			v458 := v457
			var v463 uint64
			if v131 != 0 {
				v463 = 0x5
			} else {
				v463 = 0x4
			}
			v464 := v463
			v466 := v464
			v468 := v466
			v470 := v468
			v471 := v470
			v478 := v476
			v483 := v481
			v488 := v486
			v493 := v491
			var v494 uint64
			if v471 == 0x5 {
				v494 = 1
			}
			v495 := v494
			var v498 uint64
			if v495 != 0 {
				v498 = v497
			} else {
				v498 = v496
			}
			v503 := v501
			v507 := v505
			v510 := v508
			v513 := v511
			v516 := v514
			v519 := v517
			v522 := v520
			v525 := v523
			v528 := v526
			v531 := v529
			v534 := v532
			v537 := v535
			v540 := v538
			v543 := v541
			v546 := v544
			v549 := v547
			v552 := v550
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			n11 := v478
			n12 := v483
			n13 := v488
			n14 := v493
			n15 := v498
			n16 := v503
			n17 := v507
			n18 := v510
			n19 := v513
			n20 := v516
			n21 := v519
			n22 := v522
			n23 := v525
			n24 := v528
			n25 := v531
			n26 := v534
			n27 := v537
			n28 := v540
			n29 := v543
			n30 := v546
			n31 := v549
			n32 := v552
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
			v476 = n11
			v481 = n12
			v486 = n13
			v491 = n14
			v496 = n15
			v501 = n16
			v505 = n17
			v508 = n18
			v511 = n19
			v514 = n20
			v517 = n21
			v520 = n22
			v523 = n23
			v526 = n24
			v529 = n25
			v532 = n26
			v535 = n27
			v538 = n28
			v541 = n29
			v544 = n30
			v547 = n31
			v550 = n32
		case 0x5:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v87 := (v1 - 0x1) & 0xffff
			v88 := (v87 - v86) & 0xffff
			var v90 uint64
			if v86 != 0x0 {
				v90 = 1
			}
			v106 := (v88 << 2) & 0xffff
			v251 := v106
			v252 := v251 & 0x3ff
			v317 := (v106 + 0x1) & 0xffff
			v318 := v317 & 0x3ff
			v386 := (v106 + 0x2) & 0xffff
			v387 := v386 & 0x3ff
			v454 := (v106 + 0x3) & 0xffff
			v455 := v454 & 0x3ff
			v456 := (v86 - 0x1) & 0xffff
			var v459 uint64
			if v86 == 0x0 {
				v459 = 1
			}
			var v461 uint64
			if v459 != 0 {
				v461 = 0x6
			} else {
				v461 = 0x3
			}
			v502 := (v501 + 0x1) & 0xffffff
			v506 := (v505 + 0x1) & 0xffffff
			v536 := (v535 + 0x1) & 0xffffff
			v539 := (v538 + 0x17) & 0xffffff
			v542 := (v541 + v98) & 0xffffff
			v11 := v10
			v26 := v25
			v80 := v32
			v81 := v80
			v95 := v90
			v96 := v95
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			v126 := v125
			v249 := v132
			v250 := v249
			v315 := v133
			v316 := v315
			v383 := v134
			v384 := v383
			v451 := v135
			v452 := v451
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			v458 := v457
			v462 := v461
			v464 := v462
			v466 := v464
			v468 := v466
			v470 := v468
			v471 := v470
			v478 := v476
			v483 := v481
			var v484 uint64
			if v471 == 0x3 {
				v484 = 1
			}
			v488 := v486
			v493 := v491
			v498 := v496
			var v499 uint64
			if v471 == 0x6 {
				v499 = 1
			}
			v500 := v499
			var v503 uint64
			if v500 != 0 {
				v503 = v502
			} else {
				v503 = v501
			}
			v504 := v484
			var v507 uint64
			if v504 != 0 {
				v507 = v506
			} else {
				v507 = v505
			}
			v510 := v508
			v513 := v511
			v516 := v514
			v519 := v517
			v522 := v520
			v525 := v523
			v528 := v526
			v531 := v529
			v534 := v532
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			v546 := v544
			v549 := v547
			v552 := v550
			if addr := uint64(v252); addr < uint64(len(m1)) {
				m1[addr] = v132
			}
			if addr := uint64(v318); addr < uint64(len(m1)) {
				m1[addr] = v133
			}
			if addr := uint64(v387); addr < uint64(len(m1)) {
				m1[addr] = v134
			}
			if addr := uint64(v455); addr < uint64(len(m1)) {
				m1[addr] = v135
			}
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			n11 := v478
			n12 := v483
			n13 := v488
			n14 := v493
			n15 := v498
			n16 := v503
			n17 := v507
			n18 := v510
			n19 := v513
			n20 := v516
			n21 := v519
			n22 := v522
			n23 := v525
			n24 := v528
			n25 := v531
			n26 := v534
			n27 := v537
			n28 := v540
			n29 := v543
			n30 := v546
			n31 := v549
			n32 := v552
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
			v476 = n11
			v481 = n12
			v486 = n13
			v491 = n14
			v496 = n15
			v501 = n16
			v505 = n17
			v508 = n18
			v511 = n19
			v514 = n20
			v517 = n21
			v520 = n22
			v523 = n23
			v526 = n24
			v529 = n25
			v532 = n26
			v535 = n27
			v538 = n28
			v541 = n29
			v544 = n30
			v547 = n31
			v550 = n32
		case 0x6:
			break loop
		default:
			var v1 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v1 = m0[addr] & 0xffff
			}
			var v7 uint64
			if v6 != 0x0 {
				v7 = 1
			}
			v9 := (v6 - 0x1) & 0x7
			var v10 uint64
			if v7 != 0 {
				v10 = v9
			} else {
				v10 = v6
			}
			v13 := (0x3 - v6) & 0x3f
			v15 := (v13 + 0x1) & 0x3f
			var v16 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v16 = m0[addr] & 0xffffffff
			}
			var v18 uint64
			if v6 == 0x0 {
				v18 = 1
			}
			v28 := (0x2b - v21) & 0x3f
			v30 := (v28 - 0x4) & 0x3f
			var v31 uint64
			if addr := uint64(v30); addr < uint64(len(m2)) {
				v31 = m2[addr] & 0xffffffff
			}
			v34 := (v32 << 8) & 0xffffffff
			v36 := (v32 >> 24)
			v37 := (v34 | v36)
			v38 := (v37 >> 24)
			v40 := v38 & 0xff
			var v41 uint64
			if addr := uint64(v40); addr < uint64(len(m3)) {
				v41 = m3[addr] & 0xff
			}
			v43 := v41
			v44 := (v43 << 24) & 0xffffffff
			v46 := (v37 >> 16)
			v47 := v46 & 0xff
			var v48 uint64
			if addr := uint64(v47); addr < uint64(len(m3)) {
				v48 = m3[addr] & 0xff
			}
			v49 := v48
			v50 := (v49 << 16) & 0xffffffff
			v51 := (v44 | v50)
			v52 := (v37 >> 8)
			v53 := v52 & 0xff
			var v54 uint64
			if addr := uint64(v53); addr < uint64(len(m3)) {
				v54 = m3[addr] & 0xff
			}
			v55 := v54
			v56 := (v55 << 8) & 0xffffffff
			v57 := (v51 | v56)
			v58 := v37 & 0xff
			var v59 uint64
			if addr := uint64(v58); addr < uint64(len(m3)) {
				v59 = m3[addr] & 0xff
			}
			v60 := v59
			v62 := (v60 << 0) & 0xffffffff
			v63 := (v57 | v62)
			v65 := (v28 >> 2)
			v66 := (v65 - 0x1) & 0x3f
			v68 := v66 & 0xf
			var v69 uint64
			if addr := uint64(v68); addr < uint64(len(m4)) {
				v69 = m4[addr] & 0xffffffff
			}
			v70 := v28 & 0x3
			var v72 uint64
			if v70 == 0x0 {
				v72 = 1
			}
			v73 := (v63 ^ v69)
			var v74 uint64
			if v72 != 0 {
				v74 = v73
			} else {
				v74 = v32
			}
			v75 := (v31 ^ v74)
			var v76 uint64
			if v13 == 0x3 {
				v76 = 1
			}
			v87 := (v1 - 0x1) & 0xffff
			v88 := (v87 - v86) & 0xffff
			var v90 uint64
			if v86 != 0x0 {
				v90 = 1
			}
			var v91 uint64
			if v21 == 0x0 {
				v91 = 1
			}
			v105 := (0x17 - v98) & 0x1f
			v106 := (v88 << 2) & 0xffff
			v107 := v105
			v108 := (v106 + v107) & 0xffff
			v110 := (v108 + 0x5) & 0xffff
			v112 := v110 & 0x3ff
			var v113 uint64
			if addr := uint64(v112); addr < uint64(len(m0)) {
				v113 = m0[addr] & 0xffffffff
			}
			var v114 uint64
			if addr := uint64(v105); addr < uint64(len(m2)) {
				v114 = m2[addr] & 0xffffffff
			}
			v115 := (v113 ^ v114)
			var v117 uint64
			if v98 == 0x0 {
				v117 = 1
			}
			v128 := v120
			v129 := (v128 << 2) & 0x3f
			v130 := (0x28 - v129) & 0x3f
			var v131 uint64
			if v120 == 0x0 {
				v131 = 1
			}
			v136 := (v132 >> 24)
			v137 := v136 & 0xff
			var v138 uint64
			if addr := uint64(v137); addr < uint64(len(m3)) {
				v138 = m3[addr] & 0xff
			}
			v139 := (v132 >> 16)
			v140 := v139 & 0xff
			var v141 uint64
			if addr := uint64(v140); addr < uint64(len(m3)) {
				v141 = m3[addr] & 0xff
			}
			v142 := (v132 >> 8)
			v143 := v142 & 0xff
			var v144 uint64
			if addr := uint64(v143); addr < uint64(len(m3)) {
				v144 = m3[addr] & 0xff
			}
			v145 := v132 & 0xff
			var v146 uint64
			if addr := uint64(v145); addr < uint64(len(m3)) {
				v146 = m3[addr] & 0xff
			}
			v147 := (v133 >> 24)
			v148 := v147 & 0xff
			var v149 uint64
			if addr := uint64(v148); addr < uint64(len(m3)) {
				v149 = m3[addr] & 0xff
			}
			v150 := (v133 >> 16)
			v151 := v150 & 0xff
			var v152 uint64
			if addr := uint64(v151); addr < uint64(len(m3)) {
				v152 = m3[addr] & 0xff
			}
			v153 := (v133 >> 8)
			v154 := v153 & 0xff
			var v155 uint64
			if addr := uint64(v154); addr < uint64(len(m3)) {
				v155 = m3[addr] & 0xff
			}
			v156 := v133 & 0xff
			var v157 uint64
			if addr := uint64(v156); addr < uint64(len(m3)) {
				v157 = m3[addr] & 0xff
			}
			v158 := (v134 >> 24)
			v159 := v158 & 0xff
			var v160 uint64
			if addr := uint64(v159); addr < uint64(len(m3)) {
				v160 = m3[addr] & 0xff
			}
			v161 := (v134 >> 16)
			v162 := v161 & 0xff
			var v163 uint64
			if addr := uint64(v162); addr < uint64(len(m3)) {
				v163 = m3[addr] & 0xff
			}
			v164 := (v134 >> 8)
			v165 := v164 & 0xff
			var v166 uint64
			if addr := uint64(v165); addr < uint64(len(m3)) {
				v166 = m3[addr] & 0xff
			}
			v167 := v134 & 0xff
			var v168 uint64
			if addr := uint64(v167); addr < uint64(len(m3)) {
				v168 = m3[addr] & 0xff
			}
			v169 := (v135 >> 24)
			v170 := v169 & 0xff
			var v171 uint64
			if addr := uint64(v170); addr < uint64(len(m3)) {
				v171 = m3[addr] & 0xff
			}
			v172 := (v135 >> 16)
			v173 := v172 & 0xff
			var v174 uint64
			if addr := uint64(v173); addr < uint64(len(m3)) {
				v174 = m3[addr] & 0xff
			}
			v175 := (v135 >> 8)
			v176 := v175 & 0xff
			var v177 uint64
			if addr := uint64(v176); addr < uint64(len(m3)) {
				v177 = m3[addr] & 0xff
			}
			v178 := v135 & 0xff
			var v179 uint64
			if addr := uint64(v178); addr < uint64(len(m3)) {
				v179 = m3[addr] & 0xff
			}
			v181 := (v138 >> 7)
			v183 := v181 & 0x1
			v185 := (v138 << 1) & 0xff
			var v188 uint64
			if v183 != 0 {
				v188 = 0x1b
			} else {
				v188 = 0x0
			}
			v189 := (v185 ^ v188)
			v190 := (v152 >> 7)
			v191 := v190 & 0x1
			v192 := (v152 << 1) & 0xff
			var v193 uint64
			if v191 != 0 {
				v193 = 0x1b
			} else {
				v193 = 0x0
			}
			v194 := (v192 ^ v193)
			v195 := (v194 ^ v152)
			v196 := (v189 ^ v195)
			v197 := (v196 ^ v166)
			v198 := (v197 ^ v179)
			v199 := (v138 ^ v194)
			v200 := (v166 >> 7)
			v201 := v200 & 0x1
			v202 := (v166 << 1) & 0xff
			var v203 uint64
			if v201 != 0 {
				v203 = 0x1b
			} else {
				v203 = 0x0
			}
			v204 := (v202 ^ v203)
			v205 := (v204 ^ v166)
			v206 := (v199 ^ v205)
			v207 := (v206 ^ v179)
			v208 := (v138 ^ v152)
			v209 := (v208 ^ v204)
			v210 := (v179 >> 7)
			v211 := v210 & 0x1
			v212 := (v179 << 1) & 0xff
			var v213 uint64
			if v211 != 0 {
				v213 = 0x1b
			} else {
				v213 = 0x0
			}
			v214 := (v212 ^ v213)
			v215 := (v214 ^ v179)
			v216 := (v209 ^ v215)
			v217 := (v189 ^ v138)
			v218 := (v217 ^ v152)
			v219 := (v218 ^ v166)
			v220 := (v219 ^ v214)
			v221 := v198
			v222 := (v221 << 24) & 0xffffffff
			v223 := v207
			v224 := (v223 << 16) & 0xffffffff
			v225 := (v222 | v224)
			v226 := v216
			v227 := (v226 << 8) & 0xffffffff
			v228 := (v225 | v227)
			v229 := v220
			v230 := (v228 | v229)
			v231 := v138
			v232 := (v231 << 24) & 0xffffffff
			v233 := v152
			v234 := (v233 << 16) & 0xffffffff
			v235 := (v232 | v234)
			v236 := v166
			v237 := (v236 << 8) & 0xffffffff
			v238 := (v235 | v237)
			v239 := v179
			v240 := (v238 | v239)
			var v241 uint64
			if v131 != 0 {
				v241 = v240
			} else {
				v241 = v230
			}
			v242 := v130
			var v243 uint64
			if addr := uint64(v242); addr < uint64(len(m2)) {
				v243 = m2[addr] & 0xffffffff
			}
			v244 := (v241 ^ v243)
			var v245 uint64
			if v105 == 0x0 {
				v245 = 1
			}
			v251 := v106
			v252 := v251 & 0x3ff
			v253 := (v149 >> 7)
			v254 := v253 & 0x1
			v255 := (v149 << 1) & 0xff
			var v256 uint64
			if v254 != 0 {
				v256 = 0x1b
			} else {
				v256 = 0x0
			}
			v257 := (v255 ^ v256)
			v258 := (v163 >> 7)
			v259 := v258 & 0x1
			v260 := (v163 << 1) & 0xff
			var v261 uint64
			if v259 != 0 {
				v261 = 0x1b
			} else {
				v261 = 0x0
			}
			v262 := (v260 ^ v261)
			v263 := (v262 ^ v163)
			v264 := (v257 ^ v263)
			v265 := (v264 ^ v177)
			v266 := (v265 ^ v146)
			v267 := (v149 ^ v262)
			v268 := (v177 >> 7)
			v269 := v268 & 0x1
			v270 := (v177 << 1) & 0xff
			var v271 uint64
			if v269 != 0 {
				v271 = 0x1b
			} else {
				v271 = 0x0
			}
			v272 := (v270 ^ v271)
			v273 := (v272 ^ v177)
			v274 := (v267 ^ v273)
			v275 := (v274 ^ v146)
			v276 := (v149 ^ v163)
			v277 := (v276 ^ v272)
			v278 := (v146 >> 7)
			v279 := v278 & 0x1
			v280 := (v146 << 1) & 0xff
			var v281 uint64
			if v279 != 0 {
				v281 = 0x1b
			} else {
				v281 = 0x0
			}
			v282 := (v280 ^ v281)
			v283 := (v282 ^ v146)
			v284 := (v277 ^ v283)
			v285 := (v257 ^ v149)
			v286 := (v285 ^ v163)
			v287 := (v286 ^ v177)
			v288 := (v287 ^ v282)
			v289 := v266
			v290 := (v289 << 24) & 0xffffffff
			v291 := v275
			v292 := (v291 << 16) & 0xffffffff
			v293 := (v290 | v292)
			v294 := v284
			v295 := (v294 << 8) & 0xffffffff
			v296 := (v293 | v295)
			v297 := v288
			v298 := (v296 | v297)
			v299 := v149
			v300 := (v299 << 24) & 0xffffffff
			v301 := v163
			v302 := (v301 << 16) & 0xffffffff
			v303 := (v300 | v302)
			v304 := v177
			v305 := (v304 << 8) & 0xffffffff
			v306 := (v303 | v305)
			v307 := v146
			v308 := (v306 | v307)
			var v309 uint64
			if v131 != 0 {
				v309 = v308
			} else {
				v309 = v298
			}
			v310 := (v130 + 0x1) & 0x3f
			var v311 uint64
			if addr := uint64(v310); addr < uint64(len(m2)) {
				v311 = m2[addr] & 0xffffffff
			}
			v312 := (v309 ^ v311)
			var v313 uint64
			if v105 == 0x1 {
				v313 = 1
			}
			v317 := (v106 + 0x1) & 0xffff
			v318 := v317 & 0x3ff
			v319 := (v160 >> 7)
			v320 := v319 & 0x1
			v321 := (v160 << 1) & 0xff
			var v322 uint64
			if v320 != 0 {
				v322 = 0x1b
			} else {
				v322 = 0x0
			}
			v323 := (v321 ^ v322)
			v324 := (v174 >> 7)
			v325 := v324 & 0x1
			v326 := (v174 << 1) & 0xff
			var v327 uint64
			if v325 != 0 {
				v327 = 0x1b
			} else {
				v327 = 0x0
			}
			v328 := (v326 ^ v327)
			v329 := (v328 ^ v174)
			v330 := (v323 ^ v329)
			v331 := (v330 ^ v144)
			v332 := (v331 ^ v157)
			v333 := (v160 ^ v328)
			v334 := (v144 >> 7)
			v335 := v334 & 0x1
			v336 := (v144 << 1) & 0xff
			var v337 uint64
			if v335 != 0 {
				v337 = 0x1b
			} else {
				v337 = 0x0
			}
			v338 := (v336 ^ v337)
			v339 := (v338 ^ v144)
			v340 := (v333 ^ v339)
			v341 := (v340 ^ v157)
			v342 := (v160 ^ v174)
			v343 := (v342 ^ v338)
			v344 := (v157 >> 7)
			v345 := v344 & 0x1
			v346 := (v157 << 1) & 0xff
			var v347 uint64
			if v345 != 0 {
				v347 = 0x1b
			} else {
				v347 = 0x0
			}
			v348 := (v346 ^ v347)
			v349 := (v348 ^ v157)
			v350 := (v343 ^ v349)
			v351 := (v323 ^ v160)
			v352 := (v351 ^ v174)
			v353 := (v352 ^ v144)
			v354 := (v353 ^ v348)
			v355 := v332
			v356 := (v355 << 24) & 0xffffffff
			v357 := v341
			v358 := (v357 << 16) & 0xffffffff
			v359 := (v356 | v358)
			v360 := v350
			v361 := (v360 << 8) & 0xffffffff
			v362 := (v359 | v361)
			v363 := v354
			v364 := (v362 | v363)
			v365 := v160
			v366 := (v365 << 24) & 0xffffffff
			v367 := v174
			v368 := (v367 << 16) & 0xffffffff
			v369 := (v366 | v368)
			v370 := v144
			v371 := (v370 << 8) & 0xffffffff
			v372 := (v369 | v371)
			v373 := v157
			v374 := (v372 | v373)
			var v375 uint64
			if v131 != 0 {
				v375 = v374
			} else {
				v375 = v364
			}
			v377 := (v130 + 0x2) & 0x3f
			var v378 uint64
			if addr := uint64(v377); addr < uint64(len(m2)) {
				v378 = m2[addr] & 0xffffffff
			}
			v379 := (v375 ^ v378)
			var v381 uint64
			if v105 == 0x2 {
				v381 = 1
			}
			v386 := (v106 + 0x2) & 0xffff
			v387 := v386 & 0x3ff
			v388 := (v171 >> 7)
			v389 := v388 & 0x1
			v390 := (v171 << 1) & 0xff
			var v391 uint64
			if v389 != 0 {
				v391 = 0x1b
			} else {
				v391 = 0x0
			}
			v392 := (v390 ^ v391)
			v393 := (v141 >> 7)
			v394 := v393 & 0x1
			v395 := (v141 << 1) & 0xff
			var v396 uint64
			if v394 != 0 {
				v396 = 0x1b
			} else {
				v396 = 0x0
			}
			v397 := (v395 ^ v396)
			v398 := (v397 ^ v141)
			v399 := (v392 ^ v398)
			v400 := (v399 ^ v155)
			v401 := (v400 ^ v168)
			v402 := (v171 ^ v397)
			v403 := (v155 >> 7)
			v404 := v403 & 0x1
			v405 := (v155 << 1) & 0xff
			var v406 uint64
			if v404 != 0 {
				v406 = 0x1b
			} else {
				v406 = 0x0
			}
			v407 := (v405 ^ v406)
			v408 := (v407 ^ v155)
			v409 := (v402 ^ v408)
			v410 := (v409 ^ v168)
			v411 := (v171 ^ v141)
			v412 := (v411 ^ v407)
			v413 := (v168 >> 7)
			v414 := v413 & 0x1
			v415 := (v168 << 1) & 0xff
			var v416 uint64
			if v414 != 0 {
				v416 = 0x1b
			} else {
				v416 = 0x0
			}
			v417 := (v415 ^ v416)
			v418 := (v417 ^ v168)
			v419 := (v412 ^ v418)
			v420 := (v392 ^ v171)
			v421 := (v420 ^ v141)
			v422 := (v421 ^ v155)
			v423 := (v422 ^ v417)
			v424 := v401
			v425 := (v424 << 24) & 0xffffffff
			v426 := v410
			v427 := (v426 << 16) & 0xffffffff
			v428 := (v425 | v427)
			v429 := v419
			v430 := (v429 << 8) & 0xffffffff
			v431 := (v428 | v430)
			v432 := v423
			v433 := (v431 | v432)
			v434 := v171
			v435 := (v434 << 24) & 0xffffffff
			v436 := v141
			v437 := (v436 << 16) & 0xffffffff
			v438 := (v435 | v437)
			v439 := v155
			v440 := (v439 << 8) & 0xffffffff
			v441 := (v438 | v440)
			v442 := v168
			v443 := (v441 | v442)
			var v444 uint64
			if v131 != 0 {
				v444 = v443
			} else {
				v444 = v433
			}
			v445 := (v130 + 0x3) & 0x3f
			var v446 uint64
			if addr := uint64(v445); addr < uint64(len(m2)) {
				v446 = m2[addr] & 0xffffffff
			}
			v447 := (v444 ^ v446)
			var v449 uint64
			if v105 == 0x3 {
				v449 = 1
			}
			v454 := (v106 + 0x3) & 0xffff
			v455 := v454 & 0x3ff
			v456 := (v86 - 0x1) & 0xffff
			var v459 uint64
			if v86 == 0x0 {
				v459 = 1
			}
			var v461 uint64
			if v459 != 0 {
				v461 = 0x6
			} else {
				v461 = 0x3
			}
			v477 := (v476 + 0x1) & 0xffffff
			v482 := (v481 + 0x1) & 0xffffff
			v487 := (v486 + 0x1) & 0xffffff
			v492 := (v491 + 0x1) & 0xffffff
			v497 := (v496 + 0x1) & 0xffffff
			v502 := (v501 + 0x1) & 0xffffff
			v506 := (v505 + 0x1) & 0xffffff
			v509 := (v508 + 0x1) & 0xffffff
			v512 := (v511 + 0x3) & 0xffffff
			v515 := (v514 + v6) & 0xffffff
			v518 := (v517 + 0x1) & 0xffffff
			v521 := (v520 + 0x27) & 0xffffff
			v524 := (v523 + v21) & 0xffffff
			v527 := (v526 + 0x1) & 0xffffff
			v530 := (v529 + v87) & 0xffffff
			v533 := (v532 + v86) & 0xffffff
			v536 := (v535 + 0x1) & 0xffffff
			v539 := (v538 + 0x17) & 0xffffff
			v542 := (v541 + v98) & 0xffffff
			v545 := (v544 + 0x1) & 0xffffff
			v548 := (v547 + 0x9) & 0xffffff
			v551 := (v550 + v120) & 0xffffff
			var v4 uint64
			if v2 == 0x0 {
				v4 = 1
			}
			var v11 uint64
			if v4 != 0 {
				v11 = 0x3
			} else {
				v11 = v10
			}
			var v17 uint64
			if v2 == 0x1 {
				v17 = 1
			}
			v19 := v17 & v18
			var v26 uint64
			if v19 != 0 {
				v26 = 0x27
			} else {
				v26 = v25
			}
			v77 := v17 & v76
			var v79 uint64
			if v2 == 0x2 {
				v79 = 1
			}
			var v80 uint64
			if v79 != 0 {
				v80 = v75
			} else {
				v80 = v32
			}
			var v81 uint64
			if v77 != 0 {
				v81 = v16
			} else {
				v81 = v80
			}
			var v82 uint64
			if v17 != 0 {
				v82 = v13
			} else {
				v82 = v28
			}
			var v83 uint64
			if v17 != 0 {
				v83 = v16
			} else {
				v83 = v75
			}
			v84 := (v17 | v79)
			v92 := v79 & v91
			var v94 uint64
			if v2 == 0x5 {
				v94 = 1
			}
			v95 := v94 & v90
			v96 := (v92 | v95)
			var v104 uint64
			if v96 != 0 {
				v104 = 0x17
			} else {
				v104 = v103
			}
			var v116 uint64
			if v2 == 0x3 {
				v116 = 1
			}
			v118 := v116 & v117
			var v126 uint64
			if v118 != 0 {
				v126 = 0x9
			} else {
				v126 = v125
			}
			v246 := v116 & v245
			var v248 uint64
			if v2 == 0x4 {
				v248 = 1
			}
			var v249 uint64
			if v248 != 0 {
				v249 = v244
			} else {
				v249 = v132
			}
			var v250 uint64
			if v246 != 0 {
				v250 = v115
			} else {
				v250 = v249
			}
			v314 := v116 & v313
			var v315 uint64
			if v248 != 0 {
				v315 = v312
			} else {
				v315 = v133
			}
			var v316 uint64
			if v314 != 0 {
				v316 = v115
			} else {
				v316 = v315
			}
			v382 := v116 & v381
			var v383 uint64
			if v248 != 0 {
				v383 = v379
			} else {
				v383 = v134
			}
			var v384 uint64
			if v382 != 0 {
				v384 = v115
			} else {
				v384 = v383
			}
			v450 := v116 & v449
			var v451 uint64
			if v248 != 0 {
				v451 = v447
			} else {
				v451 = v135
			}
			var v452 uint64
			if v450 != 0 {
				v452 = v115
			} else {
				v452 = v451
			}
			var v457 uint64
			if v95 != 0 {
				v457 = v456
			} else {
				v457 = v86
			}
			var v458 uint64
			if v4 != 0 {
				v458 = v87
			} else {
				v458 = v457
			}
			var v462 uint64
			if v94 != 0 {
				v462 = v461
			} else {
				v462 = v2
			}
			var v463 uint64
			if v131 != 0 {
				v463 = 0x5
			} else {
				v463 = v2
			}
			var v464 uint64
			if v248 != 0 {
				v464 = v463
			} else {
				v464 = v462
			}
			var v465 uint64
			if v117 != 0 {
				v465 = 0x4
			} else {
				v465 = v2
			}
			var v466 uint64
			if v116 != 0 {
				v466 = v465
			} else {
				v466 = v464
			}
			var v467 uint64
			if v91 != 0 {
				v467 = 0x3
			} else {
				v467 = v2
			}
			var v468 uint64
			if v79 != 0 {
				v468 = v467
			} else {
				v468 = v466
			}
			var v469 uint64
			if v18 != 0 {
				v469 = 0x2
			} else {
				v469 = v2
			}
			var v470 uint64
			if v17 != 0 {
				v470 = v469
			} else {
				v470 = v468
			}
			var v471 uint64
			if v4 != 0 {
				v471 = 0x1
			} else {
				v471 = v470
			}
			var v472 uint64
			if v2 == 0x6 {
				v472 = 1
			}
			var v473 uint64
			if v471 == 0x1 {
				v473 = 1
			}
			v474 := v4 & v473
			var v478 uint64
			if v474 != 0 {
				v478 = v477
			} else {
				v478 = v476
			}
			var v479 uint64
			if v471 == 0x2 {
				v479 = 1
			}
			v480 := v17 & v479
			var v483 uint64
			if v480 != 0 {
				v483 = v482
			} else {
				v483 = v481
			}
			var v484 uint64
			if v471 == 0x3 {
				v484 = 1
			}
			v485 := v79 & v484
			var v488 uint64
			if v485 != 0 {
				v488 = v487
			} else {
				v488 = v486
			}
			var v489 uint64
			if v471 == 0x4 {
				v489 = 1
			}
			v490 := v116 & v489
			var v493 uint64
			if v490 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			var v494 uint64
			if v471 == 0x5 {
				v494 = 1
			}
			v495 := v248 & v494
			var v498 uint64
			if v495 != 0 {
				v498 = v497
			} else {
				v498 = v496
			}
			var v499 uint64
			if v471 == 0x6 {
				v499 = 1
			}
			v500 := v94 & v499
			var v503 uint64
			if v500 != 0 {
				v503 = v502
			} else {
				v503 = v501
			}
			v504 := v94 & v484
			var v507 uint64
			if v504 != 0 {
				v507 = v506
			} else {
				v507 = v505
			}
			var v510 uint64
			if v4 != 0 {
				v510 = v509
			} else {
				v510 = v508
			}
			var v513 uint64
			if v4 != 0 {
				v513 = v512
			} else {
				v513 = v511
			}
			var v516 uint64
			if v4 != 0 {
				v516 = v515
			} else {
				v516 = v514
			}
			var v519 uint64
			if v19 != 0 {
				v519 = v518
			} else {
				v519 = v517
			}
			var v522 uint64
			if v19 != 0 {
				v522 = v521
			} else {
				v522 = v520
			}
			var v525 uint64
			if v19 != 0 {
				v525 = v524
			} else {
				v525 = v523
			}
			var v528 uint64
			if v4 != 0 {
				v528 = v527
			} else {
				v528 = v526
			}
			var v531 uint64
			if v4 != 0 {
				v531 = v530
			} else {
				v531 = v529
			}
			var v534 uint64
			if v4 != 0 {
				v534 = v533
			} else {
				v534 = v532
			}
			var v537 uint64
			if v96 != 0 {
				v537 = v536
			} else {
				v537 = v535
			}
			var v540 uint64
			if v96 != 0 {
				v540 = v539
			} else {
				v540 = v538
			}
			var v543 uint64
			if v96 != 0 {
				v543 = v542
			} else {
				v543 = v541
			}
			var v546 uint64
			if v118 != 0 {
				v546 = v545
			} else {
				v546 = v544
			}
			var v549 uint64
			if v118 != 0 {
				v549 = v548
			} else {
				v549 = v547
			}
			var v552 uint64
			if v118 != 0 {
				v552 = v551
			} else {
				v552 = v550
			}
			if v472 != 0 {
				break loop
			}
			if v84 != 0 {
				if addr := uint64(v82); addr < uint64(len(m2)) {
					m2[addr] = v83
				}
			}
			if v94 != 0 {
				if addr := uint64(v252); addr < uint64(len(m1)) {
					m1[addr] = v132
				}
			}
			if v94 != 0 {
				if addr := uint64(v318); addr < uint64(len(m1)) {
					m1[addr] = v133
				}
			}
			if v94 != 0 {
				if addr := uint64(v387); addr < uint64(len(m1)) {
					m1[addr] = v134
				}
			}
			if v94 != 0 {
				if addr := uint64(v455); addr < uint64(len(m1)) {
					m1[addr] = v135
				}
			}
			n0 := v471
			n1 := v11
			n2 := v26
			n3 := v81
			n4 := v458
			n5 := v104
			n6 := v126
			n7 := v250
			n8 := v316
			n9 := v384
			n10 := v452
			n11 := v478
			n12 := v483
			n13 := v488
			n14 := v493
			n15 := v498
			n16 := v503
			n17 := v507
			n18 := v510
			n19 := v513
			n20 := v516
			n21 := v519
			n22 := v522
			n23 := v525
			n24 := v528
			n25 := v531
			n26 := v534
			n27 := v537
			n28 := v540
			n29 := v543
			n30 := v546
			n31 := v549
			n32 := v552
			v2 = n0
			v6 = n1
			v21 = n2
			v32 = n3
			v86 = n4
			v98 = n5
			v120 = n6
			v132 = n7
			v133 = n8
			v134 = n9
			v135 = n10
			v476 = n11
			v481 = n12
			v486 = n13
			v491 = n14
			v496 = n15
			v501 = n16
			v505 = n17
			v508 = n18
			v511 = n19
			v514 = n20
			v517 = n21
			v520 = n22
			v523 = n23
			v526 = n24
			v529 = n25
			v532 = n26
			v535 = n27
			v538 = n28
			v541 = n29
			v544 = n30
			v547 = n31
			v550 = n32
		}
	}
	vals[2] = v2
	vals[6] = v6
	vals[21] = v21
	vals[32] = v32
	vals[86] = v86
	vals[98] = v98
	vals[120] = v120
	vals[132] = v132
	vals[133] = v133
	vals[134] = v134
	vals[135] = v135
	vals[476] = v476
	vals[481] = v481
	vals[486] = v486
	vals[491] = v491
	vals[496] = v496
	vals[501] = v501
	vals[505] = v505
	vals[508] = v508
	vals[511] = v511
	vals[514] = v514
	vals[517] = v517
	vals[520] = v520
	vals[523] = v523
	vals[526] = v526
	vals[529] = v529
	vals[532] = v532
	vals[535] = v535
	vals[538] = v538
	vals[541] = v541
	vals[544] = v544
	vals[547] = v547
	vals[550] = v550
	var v1 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v1 = m0[addr] & 0xffff
	}
	vals[1] = v1
	var v7 uint64
	if v6 != 0x0 {
		v7 = 1
	}
	vals[7] = v7
	v9 := (v6 - 0x1) & 0x7
	vals[9] = v9
	var v10 uint64
	if v7 != 0 {
		v10 = v9
	} else {
		v10 = v6
	}
	vals[10] = v10
	v13 := (0x3 - v6) & 0x3f
	vals[13] = v13
	v15 := (v13 + 0x1) & 0x3f
	vals[15] = v15
	var v16 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v16 = m0[addr] & 0xffffffff
	}
	vals[16] = v16
	var v18 uint64
	if v6 == 0x0 {
		v18 = 1
	}
	vals[18] = v18
	var v23 uint64
	if v21 != 0x0 {
		v23 = 1
	}
	vals[23] = v23
	v24 := (v21 - 0x1) & 0x3f
	vals[24] = v24
	var v25 uint64
	if v23 != 0 {
		v25 = v24
	} else {
		v25 = v21
	}
	vals[25] = v25
	v28 := (0x2b - v21) & 0x3f
	vals[28] = v28
	v30 := (v28 - 0x4) & 0x3f
	vals[30] = v30
	var v31 uint64
	if addr := uint64(v30); addr < uint64(len(m2)) {
		v31 = m2[addr] & 0xffffffff
	}
	vals[31] = v31
	v34 := (v32 << 8) & 0xffffffff
	vals[34] = v34
	v36 := (v32 >> 24)
	vals[36] = v36
	v37 := (v34 | v36)
	vals[37] = v37
	v38 := (v37 >> 24)
	vals[38] = v38
	v40 := v38 & 0xff
	vals[40] = v40
	var v41 uint64
	if addr := uint64(v40); addr < uint64(len(m3)) {
		v41 = m3[addr] & 0xff
	}
	vals[41] = v41
	v43 := v41
	vals[43] = v43
	v44 := (v43 << 24) & 0xffffffff
	vals[44] = v44
	v46 := (v37 >> 16)
	vals[46] = v46
	v47 := v46 & 0xff
	vals[47] = v47
	var v48 uint64
	if addr := uint64(v47); addr < uint64(len(m3)) {
		v48 = m3[addr] & 0xff
	}
	vals[48] = v48
	v49 := v48
	vals[49] = v49
	v50 := (v49 << 16) & 0xffffffff
	vals[50] = v50
	v51 := (v44 | v50)
	vals[51] = v51
	v52 := (v37 >> 8)
	vals[52] = v52
	v53 := v52 & 0xff
	vals[53] = v53
	var v54 uint64
	if addr := uint64(v53); addr < uint64(len(m3)) {
		v54 = m3[addr] & 0xff
	}
	vals[54] = v54
	v55 := v54
	vals[55] = v55
	v56 := (v55 << 8) & 0xffffffff
	vals[56] = v56
	v57 := (v51 | v56)
	vals[57] = v57
	v58 := v37 & 0xff
	vals[58] = v58
	var v59 uint64
	if addr := uint64(v58); addr < uint64(len(m3)) {
		v59 = m3[addr] & 0xff
	}
	vals[59] = v59
	v60 := v59
	vals[60] = v60
	v62 := (v60 << 0) & 0xffffffff
	vals[62] = v62
	v63 := (v57 | v62)
	vals[63] = v63
	v65 := (v28 >> 2)
	vals[65] = v65
	v66 := (v65 - 0x1) & 0x3f
	vals[66] = v66
	v68 := v66 & 0xf
	vals[68] = v68
	var v69 uint64
	if addr := uint64(v68); addr < uint64(len(m4)) {
		v69 = m4[addr] & 0xffffffff
	}
	vals[69] = v69
	v70 := v28 & 0x3
	vals[70] = v70
	var v72 uint64
	if v70 == 0x0 {
		v72 = 1
	}
	vals[72] = v72
	v73 := (v63 ^ v69)
	vals[73] = v73
	var v74 uint64
	if v72 != 0 {
		v74 = v73
	} else {
		v74 = v32
	}
	vals[74] = v74
	v75 := (v31 ^ v74)
	vals[75] = v75
	var v76 uint64
	if v13 == 0x3 {
		v76 = 1
	}
	vals[76] = v76
	v87 := (v1 - 0x1) & 0xffff
	vals[87] = v87
	v88 := (v87 - v86) & 0xffff
	vals[88] = v88
	var v90 uint64
	if v86 != 0x0 {
		v90 = 1
	}
	vals[90] = v90
	var v91 uint64
	if v21 == 0x0 {
		v91 = 1
	}
	vals[91] = v91
	var v100 uint64
	if v98 != 0x0 {
		v100 = 1
	}
	vals[100] = v100
	v102 := (v98 - 0x1) & 0x1f
	vals[102] = v102
	var v103 uint64
	if v100 != 0 {
		v103 = v102
	} else {
		v103 = v98
	}
	vals[103] = v103
	v105 := (0x17 - v98) & 0x1f
	vals[105] = v105
	v106 := (v88 << 2) & 0xffff
	vals[106] = v106
	v107 := v105
	vals[107] = v107
	v108 := (v106 + v107) & 0xffff
	vals[108] = v108
	v110 := (v108 + 0x5) & 0xffff
	vals[110] = v110
	v112 := v110 & 0x3ff
	vals[112] = v112
	var v113 uint64
	if addr := uint64(v112); addr < uint64(len(m0)) {
		v113 = m0[addr] & 0xffffffff
	}
	vals[113] = v113
	var v114 uint64
	if addr := uint64(v105); addr < uint64(len(m2)) {
		v114 = m2[addr] & 0xffffffff
	}
	vals[114] = v114
	v115 := (v113 ^ v114)
	vals[115] = v115
	var v117 uint64
	if v98 == 0x0 {
		v117 = 1
	}
	vals[117] = v117
	var v122 uint64
	if v120 != 0x0 {
		v122 = 1
	}
	vals[122] = v122
	v124 := (v120 - 0x1) & 0xf
	vals[124] = v124
	var v125 uint64
	if v122 != 0 {
		v125 = v124
	} else {
		v125 = v120
	}
	vals[125] = v125
	v128 := v120
	vals[128] = v128
	v129 := (v128 << 2) & 0x3f
	vals[129] = v129
	v130 := (0x28 - v129) & 0x3f
	vals[130] = v130
	var v131 uint64
	if v120 == 0x0 {
		v131 = 1
	}
	vals[131] = v131
	v136 := (v132 >> 24)
	vals[136] = v136
	v137 := v136 & 0xff
	vals[137] = v137
	var v138 uint64
	if addr := uint64(v137); addr < uint64(len(m3)) {
		v138 = m3[addr] & 0xff
	}
	vals[138] = v138
	v139 := (v132 >> 16)
	vals[139] = v139
	v140 := v139 & 0xff
	vals[140] = v140
	var v141 uint64
	if addr := uint64(v140); addr < uint64(len(m3)) {
		v141 = m3[addr] & 0xff
	}
	vals[141] = v141
	v142 := (v132 >> 8)
	vals[142] = v142
	v143 := v142 & 0xff
	vals[143] = v143
	var v144 uint64
	if addr := uint64(v143); addr < uint64(len(m3)) {
		v144 = m3[addr] & 0xff
	}
	vals[144] = v144
	v145 := v132 & 0xff
	vals[145] = v145
	var v146 uint64
	if addr := uint64(v145); addr < uint64(len(m3)) {
		v146 = m3[addr] & 0xff
	}
	vals[146] = v146
	v147 := (v133 >> 24)
	vals[147] = v147
	v148 := v147 & 0xff
	vals[148] = v148
	var v149 uint64
	if addr := uint64(v148); addr < uint64(len(m3)) {
		v149 = m3[addr] & 0xff
	}
	vals[149] = v149
	v150 := (v133 >> 16)
	vals[150] = v150
	v151 := v150 & 0xff
	vals[151] = v151
	var v152 uint64
	if addr := uint64(v151); addr < uint64(len(m3)) {
		v152 = m3[addr] & 0xff
	}
	vals[152] = v152
	v153 := (v133 >> 8)
	vals[153] = v153
	v154 := v153 & 0xff
	vals[154] = v154
	var v155 uint64
	if addr := uint64(v154); addr < uint64(len(m3)) {
		v155 = m3[addr] & 0xff
	}
	vals[155] = v155
	v156 := v133 & 0xff
	vals[156] = v156
	var v157 uint64
	if addr := uint64(v156); addr < uint64(len(m3)) {
		v157 = m3[addr] & 0xff
	}
	vals[157] = v157
	v158 := (v134 >> 24)
	vals[158] = v158
	v159 := v158 & 0xff
	vals[159] = v159
	var v160 uint64
	if addr := uint64(v159); addr < uint64(len(m3)) {
		v160 = m3[addr] & 0xff
	}
	vals[160] = v160
	v161 := (v134 >> 16)
	vals[161] = v161
	v162 := v161 & 0xff
	vals[162] = v162
	var v163 uint64
	if addr := uint64(v162); addr < uint64(len(m3)) {
		v163 = m3[addr] & 0xff
	}
	vals[163] = v163
	v164 := (v134 >> 8)
	vals[164] = v164
	v165 := v164 & 0xff
	vals[165] = v165
	var v166 uint64
	if addr := uint64(v165); addr < uint64(len(m3)) {
		v166 = m3[addr] & 0xff
	}
	vals[166] = v166
	v167 := v134 & 0xff
	vals[167] = v167
	var v168 uint64
	if addr := uint64(v167); addr < uint64(len(m3)) {
		v168 = m3[addr] & 0xff
	}
	vals[168] = v168
	v169 := (v135 >> 24)
	vals[169] = v169
	v170 := v169 & 0xff
	vals[170] = v170
	var v171 uint64
	if addr := uint64(v170); addr < uint64(len(m3)) {
		v171 = m3[addr] & 0xff
	}
	vals[171] = v171
	v172 := (v135 >> 16)
	vals[172] = v172
	v173 := v172 & 0xff
	vals[173] = v173
	var v174 uint64
	if addr := uint64(v173); addr < uint64(len(m3)) {
		v174 = m3[addr] & 0xff
	}
	vals[174] = v174
	v175 := (v135 >> 8)
	vals[175] = v175
	v176 := v175 & 0xff
	vals[176] = v176
	var v177 uint64
	if addr := uint64(v176); addr < uint64(len(m3)) {
		v177 = m3[addr] & 0xff
	}
	vals[177] = v177
	v178 := v135 & 0xff
	vals[178] = v178
	var v179 uint64
	if addr := uint64(v178); addr < uint64(len(m3)) {
		v179 = m3[addr] & 0xff
	}
	vals[179] = v179
	v181 := (v138 >> 7)
	vals[181] = v181
	v183 := v181 & 0x1
	vals[183] = v183
	v185 := (v138 << 1) & 0xff
	vals[185] = v185
	var v188 uint64
	if v183 != 0 {
		v188 = 0x1b
	} else {
		v188 = 0x0
	}
	vals[188] = v188
	v189 := (v185 ^ v188)
	vals[189] = v189
	v190 := (v152 >> 7)
	vals[190] = v190
	v191 := v190 & 0x1
	vals[191] = v191
	v192 := (v152 << 1) & 0xff
	vals[192] = v192
	var v193 uint64
	if v191 != 0 {
		v193 = 0x1b
	} else {
		v193 = 0x0
	}
	vals[193] = v193
	v194 := (v192 ^ v193)
	vals[194] = v194
	v195 := (v194 ^ v152)
	vals[195] = v195
	v196 := (v189 ^ v195)
	vals[196] = v196
	v197 := (v196 ^ v166)
	vals[197] = v197
	v198 := (v197 ^ v179)
	vals[198] = v198
	v199 := (v138 ^ v194)
	vals[199] = v199
	v200 := (v166 >> 7)
	vals[200] = v200
	v201 := v200 & 0x1
	vals[201] = v201
	v202 := (v166 << 1) & 0xff
	vals[202] = v202
	var v203 uint64
	if v201 != 0 {
		v203 = 0x1b
	} else {
		v203 = 0x0
	}
	vals[203] = v203
	v204 := (v202 ^ v203)
	vals[204] = v204
	v205 := (v204 ^ v166)
	vals[205] = v205
	v206 := (v199 ^ v205)
	vals[206] = v206
	v207 := (v206 ^ v179)
	vals[207] = v207
	v208 := (v138 ^ v152)
	vals[208] = v208
	v209 := (v208 ^ v204)
	vals[209] = v209
	v210 := (v179 >> 7)
	vals[210] = v210
	v211 := v210 & 0x1
	vals[211] = v211
	v212 := (v179 << 1) & 0xff
	vals[212] = v212
	var v213 uint64
	if v211 != 0 {
		v213 = 0x1b
	} else {
		v213 = 0x0
	}
	vals[213] = v213
	v214 := (v212 ^ v213)
	vals[214] = v214
	v215 := (v214 ^ v179)
	vals[215] = v215
	v216 := (v209 ^ v215)
	vals[216] = v216
	v217 := (v189 ^ v138)
	vals[217] = v217
	v218 := (v217 ^ v152)
	vals[218] = v218
	v219 := (v218 ^ v166)
	vals[219] = v219
	v220 := (v219 ^ v214)
	vals[220] = v220
	v221 := v198
	vals[221] = v221
	v222 := (v221 << 24) & 0xffffffff
	vals[222] = v222
	v223 := v207
	vals[223] = v223
	v224 := (v223 << 16) & 0xffffffff
	vals[224] = v224
	v225 := (v222 | v224)
	vals[225] = v225
	v226 := v216
	vals[226] = v226
	v227 := (v226 << 8) & 0xffffffff
	vals[227] = v227
	v228 := (v225 | v227)
	vals[228] = v228
	v229 := v220
	vals[229] = v229
	v230 := (v228 | v229)
	vals[230] = v230
	v231 := v138
	vals[231] = v231
	v232 := (v231 << 24) & 0xffffffff
	vals[232] = v232
	v233 := v152
	vals[233] = v233
	v234 := (v233 << 16) & 0xffffffff
	vals[234] = v234
	v235 := (v232 | v234)
	vals[235] = v235
	v236 := v166
	vals[236] = v236
	v237 := (v236 << 8) & 0xffffffff
	vals[237] = v237
	v238 := (v235 | v237)
	vals[238] = v238
	v239 := v179
	vals[239] = v239
	v240 := (v238 | v239)
	vals[240] = v240
	var v241 uint64
	if v131 != 0 {
		v241 = v240
	} else {
		v241 = v230
	}
	vals[241] = v241
	v242 := v130
	vals[242] = v242
	var v243 uint64
	if addr := uint64(v242); addr < uint64(len(m2)) {
		v243 = m2[addr] & 0xffffffff
	}
	vals[243] = v243
	v244 := (v241 ^ v243)
	vals[244] = v244
	var v245 uint64
	if v105 == 0x0 {
		v245 = 1
	}
	vals[245] = v245
	v251 := v106
	vals[251] = v251
	v252 := v251 & 0x3ff
	vals[252] = v252
	v253 := (v149 >> 7)
	vals[253] = v253
	v254 := v253 & 0x1
	vals[254] = v254
	v255 := (v149 << 1) & 0xff
	vals[255] = v255
	var v256 uint64
	if v254 != 0 {
		v256 = 0x1b
	} else {
		v256 = 0x0
	}
	vals[256] = v256
	v257 := (v255 ^ v256)
	vals[257] = v257
	v258 := (v163 >> 7)
	vals[258] = v258
	v259 := v258 & 0x1
	vals[259] = v259
	v260 := (v163 << 1) & 0xff
	vals[260] = v260
	var v261 uint64
	if v259 != 0 {
		v261 = 0x1b
	} else {
		v261 = 0x0
	}
	vals[261] = v261
	v262 := (v260 ^ v261)
	vals[262] = v262
	v263 := (v262 ^ v163)
	vals[263] = v263
	v264 := (v257 ^ v263)
	vals[264] = v264
	v265 := (v264 ^ v177)
	vals[265] = v265
	v266 := (v265 ^ v146)
	vals[266] = v266
	v267 := (v149 ^ v262)
	vals[267] = v267
	v268 := (v177 >> 7)
	vals[268] = v268
	v269 := v268 & 0x1
	vals[269] = v269
	v270 := (v177 << 1) & 0xff
	vals[270] = v270
	var v271 uint64
	if v269 != 0 {
		v271 = 0x1b
	} else {
		v271 = 0x0
	}
	vals[271] = v271
	v272 := (v270 ^ v271)
	vals[272] = v272
	v273 := (v272 ^ v177)
	vals[273] = v273
	v274 := (v267 ^ v273)
	vals[274] = v274
	v275 := (v274 ^ v146)
	vals[275] = v275
	v276 := (v149 ^ v163)
	vals[276] = v276
	v277 := (v276 ^ v272)
	vals[277] = v277
	v278 := (v146 >> 7)
	vals[278] = v278
	v279 := v278 & 0x1
	vals[279] = v279
	v280 := (v146 << 1) & 0xff
	vals[280] = v280
	var v281 uint64
	if v279 != 0 {
		v281 = 0x1b
	} else {
		v281 = 0x0
	}
	vals[281] = v281
	v282 := (v280 ^ v281)
	vals[282] = v282
	v283 := (v282 ^ v146)
	vals[283] = v283
	v284 := (v277 ^ v283)
	vals[284] = v284
	v285 := (v257 ^ v149)
	vals[285] = v285
	v286 := (v285 ^ v163)
	vals[286] = v286
	v287 := (v286 ^ v177)
	vals[287] = v287
	v288 := (v287 ^ v282)
	vals[288] = v288
	v289 := v266
	vals[289] = v289
	v290 := (v289 << 24) & 0xffffffff
	vals[290] = v290
	v291 := v275
	vals[291] = v291
	v292 := (v291 << 16) & 0xffffffff
	vals[292] = v292
	v293 := (v290 | v292)
	vals[293] = v293
	v294 := v284
	vals[294] = v294
	v295 := (v294 << 8) & 0xffffffff
	vals[295] = v295
	v296 := (v293 | v295)
	vals[296] = v296
	v297 := v288
	vals[297] = v297
	v298 := (v296 | v297)
	vals[298] = v298
	v299 := v149
	vals[299] = v299
	v300 := (v299 << 24) & 0xffffffff
	vals[300] = v300
	v301 := v163
	vals[301] = v301
	v302 := (v301 << 16) & 0xffffffff
	vals[302] = v302
	v303 := (v300 | v302)
	vals[303] = v303
	v304 := v177
	vals[304] = v304
	v305 := (v304 << 8) & 0xffffffff
	vals[305] = v305
	v306 := (v303 | v305)
	vals[306] = v306
	v307 := v146
	vals[307] = v307
	v308 := (v306 | v307)
	vals[308] = v308
	var v309 uint64
	if v131 != 0 {
		v309 = v308
	} else {
		v309 = v298
	}
	vals[309] = v309
	v310 := (v130 + 0x1) & 0x3f
	vals[310] = v310
	var v311 uint64
	if addr := uint64(v310); addr < uint64(len(m2)) {
		v311 = m2[addr] & 0xffffffff
	}
	vals[311] = v311
	v312 := (v309 ^ v311)
	vals[312] = v312
	var v313 uint64
	if v105 == 0x1 {
		v313 = 1
	}
	vals[313] = v313
	v317 := (v106 + 0x1) & 0xffff
	vals[317] = v317
	v318 := v317 & 0x3ff
	vals[318] = v318
	v319 := (v160 >> 7)
	vals[319] = v319
	v320 := v319 & 0x1
	vals[320] = v320
	v321 := (v160 << 1) & 0xff
	vals[321] = v321
	var v322 uint64
	if v320 != 0 {
		v322 = 0x1b
	} else {
		v322 = 0x0
	}
	vals[322] = v322
	v323 := (v321 ^ v322)
	vals[323] = v323
	v324 := (v174 >> 7)
	vals[324] = v324
	v325 := v324 & 0x1
	vals[325] = v325
	v326 := (v174 << 1) & 0xff
	vals[326] = v326
	var v327 uint64
	if v325 != 0 {
		v327 = 0x1b
	} else {
		v327 = 0x0
	}
	vals[327] = v327
	v328 := (v326 ^ v327)
	vals[328] = v328
	v329 := (v328 ^ v174)
	vals[329] = v329
	v330 := (v323 ^ v329)
	vals[330] = v330
	v331 := (v330 ^ v144)
	vals[331] = v331
	v332 := (v331 ^ v157)
	vals[332] = v332
	v333 := (v160 ^ v328)
	vals[333] = v333
	v334 := (v144 >> 7)
	vals[334] = v334
	v335 := v334 & 0x1
	vals[335] = v335
	v336 := (v144 << 1) & 0xff
	vals[336] = v336
	var v337 uint64
	if v335 != 0 {
		v337 = 0x1b
	} else {
		v337 = 0x0
	}
	vals[337] = v337
	v338 := (v336 ^ v337)
	vals[338] = v338
	v339 := (v338 ^ v144)
	vals[339] = v339
	v340 := (v333 ^ v339)
	vals[340] = v340
	v341 := (v340 ^ v157)
	vals[341] = v341
	v342 := (v160 ^ v174)
	vals[342] = v342
	v343 := (v342 ^ v338)
	vals[343] = v343
	v344 := (v157 >> 7)
	vals[344] = v344
	v345 := v344 & 0x1
	vals[345] = v345
	v346 := (v157 << 1) & 0xff
	vals[346] = v346
	var v347 uint64
	if v345 != 0 {
		v347 = 0x1b
	} else {
		v347 = 0x0
	}
	vals[347] = v347
	v348 := (v346 ^ v347)
	vals[348] = v348
	v349 := (v348 ^ v157)
	vals[349] = v349
	v350 := (v343 ^ v349)
	vals[350] = v350
	v351 := (v323 ^ v160)
	vals[351] = v351
	v352 := (v351 ^ v174)
	vals[352] = v352
	v353 := (v352 ^ v144)
	vals[353] = v353
	v354 := (v353 ^ v348)
	vals[354] = v354
	v355 := v332
	vals[355] = v355
	v356 := (v355 << 24) & 0xffffffff
	vals[356] = v356
	v357 := v341
	vals[357] = v357
	v358 := (v357 << 16) & 0xffffffff
	vals[358] = v358
	v359 := (v356 | v358)
	vals[359] = v359
	v360 := v350
	vals[360] = v360
	v361 := (v360 << 8) & 0xffffffff
	vals[361] = v361
	v362 := (v359 | v361)
	vals[362] = v362
	v363 := v354
	vals[363] = v363
	v364 := (v362 | v363)
	vals[364] = v364
	v365 := v160
	vals[365] = v365
	v366 := (v365 << 24) & 0xffffffff
	vals[366] = v366
	v367 := v174
	vals[367] = v367
	v368 := (v367 << 16) & 0xffffffff
	vals[368] = v368
	v369 := (v366 | v368)
	vals[369] = v369
	v370 := v144
	vals[370] = v370
	v371 := (v370 << 8) & 0xffffffff
	vals[371] = v371
	v372 := (v369 | v371)
	vals[372] = v372
	v373 := v157
	vals[373] = v373
	v374 := (v372 | v373)
	vals[374] = v374
	var v375 uint64
	if v131 != 0 {
		v375 = v374
	} else {
		v375 = v364
	}
	vals[375] = v375
	v377 := (v130 + 0x2) & 0x3f
	vals[377] = v377
	var v378 uint64
	if addr := uint64(v377); addr < uint64(len(m2)) {
		v378 = m2[addr] & 0xffffffff
	}
	vals[378] = v378
	v379 := (v375 ^ v378)
	vals[379] = v379
	var v381 uint64
	if v105 == 0x2 {
		v381 = 1
	}
	vals[381] = v381
	v386 := (v106 + 0x2) & 0xffff
	vals[386] = v386
	v387 := v386 & 0x3ff
	vals[387] = v387
	v388 := (v171 >> 7)
	vals[388] = v388
	v389 := v388 & 0x1
	vals[389] = v389
	v390 := (v171 << 1) & 0xff
	vals[390] = v390
	var v391 uint64
	if v389 != 0 {
		v391 = 0x1b
	} else {
		v391 = 0x0
	}
	vals[391] = v391
	v392 := (v390 ^ v391)
	vals[392] = v392
	v393 := (v141 >> 7)
	vals[393] = v393
	v394 := v393 & 0x1
	vals[394] = v394
	v395 := (v141 << 1) & 0xff
	vals[395] = v395
	var v396 uint64
	if v394 != 0 {
		v396 = 0x1b
	} else {
		v396 = 0x0
	}
	vals[396] = v396
	v397 := (v395 ^ v396)
	vals[397] = v397
	v398 := (v397 ^ v141)
	vals[398] = v398
	v399 := (v392 ^ v398)
	vals[399] = v399
	v400 := (v399 ^ v155)
	vals[400] = v400
	v401 := (v400 ^ v168)
	vals[401] = v401
	v402 := (v171 ^ v397)
	vals[402] = v402
	v403 := (v155 >> 7)
	vals[403] = v403
	v404 := v403 & 0x1
	vals[404] = v404
	v405 := (v155 << 1) & 0xff
	vals[405] = v405
	var v406 uint64
	if v404 != 0 {
		v406 = 0x1b
	} else {
		v406 = 0x0
	}
	vals[406] = v406
	v407 := (v405 ^ v406)
	vals[407] = v407
	v408 := (v407 ^ v155)
	vals[408] = v408
	v409 := (v402 ^ v408)
	vals[409] = v409
	v410 := (v409 ^ v168)
	vals[410] = v410
	v411 := (v171 ^ v141)
	vals[411] = v411
	v412 := (v411 ^ v407)
	vals[412] = v412
	v413 := (v168 >> 7)
	vals[413] = v413
	v414 := v413 & 0x1
	vals[414] = v414
	v415 := (v168 << 1) & 0xff
	vals[415] = v415
	var v416 uint64
	if v414 != 0 {
		v416 = 0x1b
	} else {
		v416 = 0x0
	}
	vals[416] = v416
	v417 := (v415 ^ v416)
	vals[417] = v417
	v418 := (v417 ^ v168)
	vals[418] = v418
	v419 := (v412 ^ v418)
	vals[419] = v419
	v420 := (v392 ^ v171)
	vals[420] = v420
	v421 := (v420 ^ v141)
	vals[421] = v421
	v422 := (v421 ^ v155)
	vals[422] = v422
	v423 := (v422 ^ v417)
	vals[423] = v423
	v424 := v401
	vals[424] = v424
	v425 := (v424 << 24) & 0xffffffff
	vals[425] = v425
	v426 := v410
	vals[426] = v426
	v427 := (v426 << 16) & 0xffffffff
	vals[427] = v427
	v428 := (v425 | v427)
	vals[428] = v428
	v429 := v419
	vals[429] = v429
	v430 := (v429 << 8) & 0xffffffff
	vals[430] = v430
	v431 := (v428 | v430)
	vals[431] = v431
	v432 := v423
	vals[432] = v432
	v433 := (v431 | v432)
	vals[433] = v433
	v434 := v171
	vals[434] = v434
	v435 := (v434 << 24) & 0xffffffff
	vals[435] = v435
	v436 := v141
	vals[436] = v436
	v437 := (v436 << 16) & 0xffffffff
	vals[437] = v437
	v438 := (v435 | v437)
	vals[438] = v438
	v439 := v155
	vals[439] = v439
	v440 := (v439 << 8) & 0xffffffff
	vals[440] = v440
	v441 := (v438 | v440)
	vals[441] = v441
	v442 := v168
	vals[442] = v442
	v443 := (v441 | v442)
	vals[443] = v443
	var v444 uint64
	if v131 != 0 {
		v444 = v443
	} else {
		v444 = v433
	}
	vals[444] = v444
	v445 := (v130 + 0x3) & 0x3f
	vals[445] = v445
	var v446 uint64
	if addr := uint64(v445); addr < uint64(len(m2)) {
		v446 = m2[addr] & 0xffffffff
	}
	vals[446] = v446
	v447 := (v444 ^ v446)
	vals[447] = v447
	var v449 uint64
	if v105 == 0x3 {
		v449 = 1
	}
	vals[449] = v449
	v454 := (v106 + 0x3) & 0xffff
	vals[454] = v454
	v455 := v454 & 0x3ff
	vals[455] = v455
	v456 := (v86 - 0x1) & 0xffff
	vals[456] = v456
	var v459 uint64
	if v86 == 0x0 {
		v459 = 1
	}
	vals[459] = v459
	var v461 uint64
	if v459 != 0 {
		v461 = 0x6
	} else {
		v461 = 0x3
	}
	vals[461] = v461
	v477 := (v476 + 0x1) & 0xffffff
	vals[477] = v477
	v482 := (v481 + 0x1) & 0xffffff
	vals[482] = v482
	v487 := (v486 + 0x1) & 0xffffff
	vals[487] = v487
	v492 := (v491 + 0x1) & 0xffffff
	vals[492] = v492
	v497 := (v496 + 0x1) & 0xffffff
	vals[497] = v497
	v502 := (v501 + 0x1) & 0xffffff
	vals[502] = v502
	v506 := (v505 + 0x1) & 0xffffff
	vals[506] = v506
	v509 := (v508 + 0x1) & 0xffffff
	vals[509] = v509
	v512 := (v511 + 0x3) & 0xffffff
	vals[512] = v512
	v515 := (v514 + v6) & 0xffffff
	vals[515] = v515
	v518 := (v517 + 0x1) & 0xffffff
	vals[518] = v518
	v521 := (v520 + 0x27) & 0xffffff
	vals[521] = v521
	v524 := (v523 + v21) & 0xffffff
	vals[524] = v524
	v527 := (v526 + 0x1) & 0xffffff
	vals[527] = v527
	v530 := (v529 + v87) & 0xffffff
	vals[530] = v530
	v533 := (v532 + v86) & 0xffffff
	vals[533] = v533
	v536 := (v535 + 0x1) & 0xffffff
	vals[536] = v536
	v539 := (v538 + 0x17) & 0xffffff
	vals[539] = v539
	v542 := (v541 + v98) & 0xffffff
	vals[542] = v542
	v545 := (v544 + 0x1) & 0xffffff
	vals[545] = v545
	v548 := (v547 + 0x9) & 0xffffff
	vals[548] = v548
	v551 := (v550 + v120) & 0xffffff
	vals[551] = v551
	switch v2 {
	case 0x0:
		vals[4] = 0x1
		vals[11] = 0x3
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v87
		vals[458] = v458
		vals[462] = 0x0
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x0
		}
		vals[463] = v463
		vals[464] = 0x0
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x0
		}
		vals[465] = v465
		vals[466] = 0x0
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x0
		}
		vals[467] = v467
		vals[468] = 0x0
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x0
		}
		vals[469] = v469
		vals[470] = 0x0
		vals[471] = 0x1
		vals[472] = 0x0
		vals[473] = 0x1
		vals[474] = 0x1
		v478 := v477
		vals[478] = v478
		vals[479] = 0x0
		vals[480] = 0x0
		v483 := v481
		vals[483] = v483
		vals[484] = 0x0
		vals[485] = 0x0
		v488 := v486
		vals[488] = v488
		vals[489] = 0x0
		vals[490] = 0x0
		v493 := v491
		vals[493] = v493
		vals[494] = 0x0
		vals[495] = 0x0
		v498 := v496
		vals[498] = v498
		vals[499] = 0x0
		vals[500] = 0x0
		v503 := v501
		vals[503] = v503
		vals[504] = 0x0
		v507 := v505
		vals[507] = v507
		v510 := v509
		vals[510] = v510
		v513 := v512
		vals[513] = v513
		v516 := v515
		vals[516] = v516
		v519 := v517
		vals[519] = v519
		v522 := v520
		vals[522] = v522
		v525 := v523
		vals[525] = v525
		v528 := v527
		vals[528] = v528
		v531 := v530
		vals[531] = v531
		v534 := v533
		vals[534] = v534
		v537 := v535
		vals[537] = v537
		v540 := v538
		vals[540] = v540
		v543 := v541
		vals[543] = v543
		v546 := v544
		vals[546] = v546
		v549 := v547
		vals[549] = v549
		v552 := v550
		vals[552] = v552
	case 0x1:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x1
		v19 := v18
		vals[19] = v19
		var v26 uint64
		if v19 != 0 {
			v26 = 0x27
		} else {
			v26 = v25
		}
		vals[26] = v26
		v77 := v76
		vals[77] = v77
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		var v81 uint64
		if v77 != 0 {
			v81 = v16
		} else {
			v81 = v80
		}
		vals[81] = v81
		v82 := v13
		vals[82] = v82
		v83 := v16
		vals[83] = v83
		vals[84] = 0x1
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x1
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x1
		}
		vals[463] = v463
		vals[464] = 0x1
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x1
		}
		vals[465] = v465
		vals[466] = 0x1
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x1
		}
		vals[467] = v467
		vals[468] = 0x1
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x1
		}
		vals[469] = v469
		v470 := v469
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
		var v473 uint64
		if v471 == 0x1 {
			v473 = 1
		}
		vals[473] = v473
		vals[474] = 0x0
		v478 := v476
		vals[478] = v478
		var v479 uint64
		if v471 == 0x2 {
			v479 = 1
		}
		vals[479] = v479
		v480 := v479
		vals[480] = v480
		var v483 uint64
		if v480 != 0 {
			v483 = v482
		} else {
			v483 = v481
		}
		vals[483] = v483
		var v484 uint64
		if v471 == 0x3 {
			v484 = 1
		}
		vals[484] = v484
		vals[485] = 0x0
		v488 := v486
		vals[488] = v488
		var v489 uint64
		if v471 == 0x4 {
			v489 = 1
		}
		vals[489] = v489
		vals[490] = 0x0
		v493 := v491
		vals[493] = v493
		var v494 uint64
		if v471 == 0x5 {
			v494 = 1
		}
		vals[494] = v494
		vals[495] = 0x0
		v498 := v496
		vals[498] = v498
		var v499 uint64
		if v471 == 0x6 {
			v499 = 1
		}
		vals[499] = v499
		vals[500] = 0x0
		v503 := v501
		vals[503] = v503
		vals[504] = 0x0
		v507 := v505
		vals[507] = v507
		v510 := v508
		vals[510] = v510
		v513 := v511
		vals[513] = v513
		v516 := v514
		vals[516] = v516
		var v519 uint64
		if v19 != 0 {
			v519 = v518
		} else {
			v519 = v517
		}
		vals[519] = v519
		var v522 uint64
		if v19 != 0 {
			v522 = v521
		} else {
			v522 = v520
		}
		vals[522] = v522
		var v525 uint64
		if v19 != 0 {
			v525 = v524
		} else {
			v525 = v523
		}
		vals[525] = v525
		v528 := v526
		vals[528] = v528
		v531 := v529
		vals[531] = v531
		v534 := v532
		vals[534] = v534
		v537 := v535
		vals[537] = v537
		v540 := v538
		vals[540] = v540
		v543 := v541
		vals[543] = v543
		v546 := v544
		vals[546] = v546
		v549 := v547
		vals[549] = v549
		v552 := v550
		vals[552] = v552
	case 0x2:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x1
		v80 := v75
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x1
		v92 := v91
		vals[92] = v92
		vals[94] = 0x0
		vals[95] = 0x0
		v96 := v92
		vals[96] = v96
		var v104 uint64
		if v96 != 0 {
			v104 = 0x17
		} else {
			v104 = v103
		}
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x2
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x2
		}
		vals[463] = v463
		vals[464] = 0x2
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x2
		}
		vals[465] = v465
		vals[466] = 0x2
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x2
		}
		vals[467] = v467
		v468 := v467
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x2
		}
		vals[469] = v469
		v470 := v468
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
		var v473 uint64
		if v471 == 0x1 {
			v473 = 1
		}
		vals[473] = v473
		vals[474] = 0x0
		v478 := v476
		vals[478] = v478
		var v479 uint64
		if v471 == 0x2 {
			v479 = 1
		}
		vals[479] = v479
		vals[480] = 0x0
		v483 := v481
		vals[483] = v483
		var v484 uint64
		if v471 == 0x3 {
			v484 = 1
		}
		vals[484] = v484
		v485 := v484
		vals[485] = v485
		var v488 uint64
		if v485 != 0 {
			v488 = v487
		} else {
			v488 = v486
		}
		vals[488] = v488
		var v489 uint64
		if v471 == 0x4 {
			v489 = 1
		}
		vals[489] = v489
		vals[490] = 0x0
		v493 := v491
		vals[493] = v493
		var v494 uint64
		if v471 == 0x5 {
			v494 = 1
		}
		vals[494] = v494
		vals[495] = 0x0
		v498 := v496
		vals[498] = v498
		var v499 uint64
		if v471 == 0x6 {
			v499 = 1
		}
		vals[499] = v499
		vals[500] = 0x0
		v503 := v501
		vals[503] = v503
		vals[504] = 0x0
		v507 := v505
		vals[507] = v507
		v510 := v508
		vals[510] = v510
		v513 := v511
		vals[513] = v513
		v516 := v514
		vals[516] = v516
		v519 := v517
		vals[519] = v519
		v522 := v520
		vals[522] = v522
		v525 := v523
		vals[525] = v525
		v528 := v526
		vals[528] = v528
		v531 := v529
		vals[531] = v531
		v534 := v532
		vals[534] = v534
		var v537 uint64
		if v96 != 0 {
			v537 = v536
		} else {
			v537 = v535
		}
		vals[537] = v537
		var v540 uint64
		if v96 != 0 {
			v540 = v539
		} else {
			v540 = v538
		}
		vals[540] = v540
		var v543 uint64
		if v96 != 0 {
			v543 = v542
		} else {
			v543 = v541
		}
		vals[543] = v543
		v546 := v544
		vals[546] = v546
		v549 := v547
		vals[549] = v549
		v552 := v550
		vals[552] = v552
	case 0x3:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x1
		v118 := v117
		vals[118] = v118
		var v126 uint64
		if v118 != 0 {
			v126 = 0x9
		} else {
			v126 = v125
		}
		vals[126] = v126
		v246 := v245
		vals[246] = v246
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		var v250 uint64
		if v246 != 0 {
			v250 = v115
		} else {
			v250 = v249
		}
		vals[250] = v250
		v314 := v313
		vals[314] = v314
		v315 := v133
		vals[315] = v315
		var v316 uint64
		if v314 != 0 {
			v316 = v115
		} else {
			v316 = v315
		}
		vals[316] = v316
		v382 := v381
		vals[382] = v382
		v383 := v134
		vals[383] = v383
		var v384 uint64
		if v382 != 0 {
			v384 = v115
		} else {
			v384 = v383
		}
		vals[384] = v384
		v450 := v449
		vals[450] = v450
		v451 := v135
		vals[451] = v451
		var v452 uint64
		if v450 != 0 {
			v452 = v115
		} else {
			v452 = v451
		}
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x3
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x3
		}
		vals[463] = v463
		vals[464] = 0x3
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x3
		}
		vals[465] = v465
		v466 := v465
		vals[466] = v466
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x3
		}
		vals[467] = v467
		v468 := v466
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x3
		}
		vals[469] = v469
		v470 := v468
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
		var v473 uint64
		if v471 == 0x1 {
			v473 = 1
		}
		vals[473] = v473
		vals[474] = 0x0
		v478 := v476
		vals[478] = v478
		var v479 uint64
		if v471 == 0x2 {
			v479 = 1
		}
		vals[479] = v479
		vals[480] = 0x0
		v483 := v481
		vals[483] = v483
		var v484 uint64
		if v471 == 0x3 {
			v484 = 1
		}
		vals[484] = v484
		vals[485] = 0x0
		v488 := v486
		vals[488] = v488
		var v489 uint64
		if v471 == 0x4 {
			v489 = 1
		}
		vals[489] = v489
		v490 := v489
		vals[490] = v490
		var v493 uint64
		if v490 != 0 {
			v493 = v492
		} else {
			v493 = v491
		}
		vals[493] = v493
		var v494 uint64
		if v471 == 0x5 {
			v494 = 1
		}
		vals[494] = v494
		vals[495] = 0x0
		v498 := v496
		vals[498] = v498
		var v499 uint64
		if v471 == 0x6 {
			v499 = 1
		}
		vals[499] = v499
		vals[500] = 0x0
		v503 := v501
		vals[503] = v503
		vals[504] = 0x0
		v507 := v505
		vals[507] = v507
		v510 := v508
		vals[510] = v510
		v513 := v511
		vals[513] = v513
		v516 := v514
		vals[516] = v516
		v519 := v517
		vals[519] = v519
		v522 := v520
		vals[522] = v522
		v525 := v523
		vals[525] = v525
		v528 := v526
		vals[528] = v528
		v531 := v529
		vals[531] = v531
		v534 := v532
		vals[534] = v534
		v537 := v535
		vals[537] = v537
		v540 := v538
		vals[540] = v540
		v543 := v541
		vals[543] = v543
		var v546 uint64
		if v118 != 0 {
			v546 = v545
		} else {
			v546 = v544
		}
		vals[546] = v546
		var v549 uint64
		if v118 != 0 {
			v549 = v548
		} else {
			v549 = v547
		}
		vals[549] = v549
		var v552 uint64
		if v118 != 0 {
			v552 = v551
		} else {
			v552 = v550
		}
		vals[552] = v552
	case 0x4:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x1
		v249 := v244
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v312
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v379
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v447
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x4
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x4
		}
		vals[463] = v463
		v464 := v463
		vals[464] = v464
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x4
		}
		vals[465] = v465
		v466 := v464
		vals[466] = v466
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x4
		}
		vals[467] = v467
		v468 := v466
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x4
		}
		vals[469] = v469
		v470 := v468
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
		var v473 uint64
		if v471 == 0x1 {
			v473 = 1
		}
		vals[473] = v473
		vals[474] = 0x0
		v478 := v476
		vals[478] = v478
		var v479 uint64
		if v471 == 0x2 {
			v479 = 1
		}
		vals[479] = v479
		vals[480] = 0x0
		v483 := v481
		vals[483] = v483
		var v484 uint64
		if v471 == 0x3 {
			v484 = 1
		}
		vals[484] = v484
		vals[485] = 0x0
		v488 := v486
		vals[488] = v488
		var v489 uint64
		if v471 == 0x4 {
			v489 = 1
		}
		vals[489] = v489
		vals[490] = 0x0
		v493 := v491
		vals[493] = v493
		var v494 uint64
		if v471 == 0x5 {
			v494 = 1
		}
		vals[494] = v494
		v495 := v494
		vals[495] = v495
		var v498 uint64
		if v495 != 0 {
			v498 = v497
		} else {
			v498 = v496
		}
		vals[498] = v498
		var v499 uint64
		if v471 == 0x6 {
			v499 = 1
		}
		vals[499] = v499
		vals[500] = 0x0
		v503 := v501
		vals[503] = v503
		vals[504] = 0x0
		v507 := v505
		vals[507] = v507
		v510 := v508
		vals[510] = v510
		v513 := v511
		vals[513] = v513
		v516 := v514
		vals[516] = v516
		v519 := v517
		vals[519] = v519
		v522 := v520
		vals[522] = v522
		v525 := v523
		vals[525] = v525
		v528 := v526
		vals[528] = v528
		v531 := v529
		vals[531] = v531
		v534 := v532
		vals[534] = v534
		v537 := v535
		vals[537] = v537
		v540 := v538
		vals[540] = v540
		v543 := v541
		vals[543] = v543
		v546 := v544
		vals[546] = v546
		v549 := v547
		vals[549] = v549
		v552 := v550
		vals[552] = v552
	case 0x5:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x1
		v95 := v90
		vals[95] = v95
		v96 := v95
		vals[96] = v96
		var v104 uint64
		if v96 != 0 {
			v104 = 0x17
		} else {
			v104 = v103
		}
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		var v457 uint64
		if v95 != 0 {
			v457 = v456
		} else {
			v457 = v86
		}
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		v462 := v461
		vals[462] = v462
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x5
		}
		vals[463] = v463
		v464 := v462
		vals[464] = v464
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x5
		}
		vals[465] = v465
		v466 := v464
		vals[466] = v466
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x5
		}
		vals[467] = v467
		v468 := v466
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x5
		}
		vals[469] = v469
		v470 := v468
		vals[470] = v470
		v471 := v470
		vals[471] = v471
		vals[472] = 0x0
		var v473 uint64
		if v471 == 0x1 {
			v473 = 1
		}
		vals[473] = v473
		vals[474] = 0x0
		v478 := v476
		vals[478] = v478
		var v479 uint64
		if v471 == 0x2 {
			v479 = 1
		}
		vals[479] = v479
		vals[480] = 0x0
		v483 := v481
		vals[483] = v483
		var v484 uint64
		if v471 == 0x3 {
			v484 = 1
		}
		vals[484] = v484
		vals[485] = 0x0
		v488 := v486
		vals[488] = v488
		var v489 uint64
		if v471 == 0x4 {
			v489 = 1
		}
		vals[489] = v489
		vals[490] = 0x0
		v493 := v491
		vals[493] = v493
		var v494 uint64
		if v471 == 0x5 {
			v494 = 1
		}
		vals[494] = v494
		vals[495] = 0x0
		v498 := v496
		vals[498] = v498
		var v499 uint64
		if v471 == 0x6 {
			v499 = 1
		}
		vals[499] = v499
		v500 := v499
		vals[500] = v500
		var v503 uint64
		if v500 != 0 {
			v503 = v502
		} else {
			v503 = v501
		}
		vals[503] = v503
		v504 := v484
		vals[504] = v504
		var v507 uint64
		if v504 != 0 {
			v507 = v506
		} else {
			v507 = v505
		}
		vals[507] = v507
		v510 := v508
		vals[510] = v510
		v513 := v511
		vals[513] = v513
		v516 := v514
		vals[516] = v516
		v519 := v517
		vals[519] = v519
		v522 := v520
		vals[522] = v522
		v525 := v523
		vals[525] = v525
		v528 := v526
		vals[528] = v528
		v531 := v529
		vals[531] = v531
		v534 := v532
		vals[534] = v534
		var v537 uint64
		if v96 != 0 {
			v537 = v536
		} else {
			v537 = v535
		}
		vals[537] = v537
		var v540 uint64
		if v96 != 0 {
			v540 = v539
		} else {
			v540 = v538
		}
		vals[540] = v540
		var v543 uint64
		if v96 != 0 {
			v543 = v542
		} else {
			v543 = v541
		}
		vals[543] = v543
		v546 := v544
		vals[546] = v546
		v549 := v547
		vals[549] = v549
		v552 := v550
		vals[552] = v552
	case 0x6:
		vals[4] = 0x0
		v11 := v10
		vals[11] = v11
		vals[17] = 0x0
		vals[19] = 0x0
		v26 := v25
		vals[26] = v26
		vals[77] = 0x0
		vals[79] = 0x0
		v80 := v32
		vals[80] = v80
		v81 := v80
		vals[81] = v81
		v82 := v28
		vals[82] = v82
		v83 := v75
		vals[83] = v83
		vals[84] = 0x0
		vals[92] = 0x0
		vals[94] = 0x0
		vals[95] = 0x0
		vals[96] = 0x0
		v104 := v103
		vals[104] = v104
		vals[116] = 0x0
		vals[118] = 0x0
		v126 := v125
		vals[126] = v126
		vals[246] = 0x0
		vals[248] = 0x0
		v249 := v132
		vals[249] = v249
		v250 := v249
		vals[250] = v250
		vals[314] = 0x0
		v315 := v133
		vals[315] = v315
		v316 := v315
		vals[316] = v316
		vals[382] = 0x0
		v383 := v134
		vals[383] = v383
		v384 := v383
		vals[384] = v384
		vals[450] = 0x0
		v451 := v135
		vals[451] = v451
		v452 := v451
		vals[452] = v452
		v457 := v86
		vals[457] = v457
		v458 := v457
		vals[458] = v458
		vals[462] = 0x6
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = 0x6
		}
		vals[463] = v463
		vals[464] = 0x6
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = 0x6
		}
		vals[465] = v465
		vals[466] = 0x6
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = 0x6
		}
		vals[467] = v467
		vals[468] = 0x6
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = 0x6
		}
		vals[469] = v469
		vals[470] = 0x6
		vals[471] = 0x6
		vals[472] = 0x1
		vals[473] = 0x0
		vals[474] = 0x0
		v478 := v476
		vals[478] = v478
		vals[479] = 0x0
		vals[480] = 0x0
		v483 := v481
		vals[483] = v483
		vals[484] = 0x0
		vals[485] = 0x0
		v488 := v486
		vals[488] = v488
		vals[489] = 0x0
		vals[490] = 0x0
		v493 := v491
		vals[493] = v493
		vals[494] = 0x0
		vals[495] = 0x0
		v498 := v496
		vals[498] = v498
		vals[499] = 0x1
		vals[500] = 0x0
		v503 := v501
		vals[503] = v503
		vals[504] = 0x0
		v507 := v505
		vals[507] = v507
		v510 := v508
		vals[510] = v510
		v513 := v511
		vals[513] = v513
		v516 := v514
		vals[516] = v516
		v519 := v517
		vals[519] = v519
		v522 := v520
		vals[522] = v522
		v525 := v523
		vals[525] = v525
		v528 := v526
		vals[528] = v528
		v531 := v529
		vals[531] = v531
		v534 := v532
		vals[534] = v534
		v537 := v535
		vals[537] = v537
		v540 := v538
		vals[540] = v540
		v543 := v541
		vals[543] = v543
		v546 := v544
		vals[546] = v546
		v549 := v547
		vals[549] = v549
		v552 := v550
		vals[552] = v552
	default:
		var v4 uint64
		if v2 == 0x0 {
			v4 = 1
		}
		vals[4] = v4
		var v11 uint64
		if v4 != 0 {
			v11 = 0x3
		} else {
			v11 = v10
		}
		vals[11] = v11
		var v17 uint64
		if v2 == 0x1 {
			v17 = 1
		}
		vals[17] = v17
		v19 := v17 & v18
		vals[19] = v19
		var v26 uint64
		if v19 != 0 {
			v26 = 0x27
		} else {
			v26 = v25
		}
		vals[26] = v26
		v77 := v17 & v76
		vals[77] = v77
		var v79 uint64
		if v2 == 0x2 {
			v79 = 1
		}
		vals[79] = v79
		var v80 uint64
		if v79 != 0 {
			v80 = v75
		} else {
			v80 = v32
		}
		vals[80] = v80
		var v81 uint64
		if v77 != 0 {
			v81 = v16
		} else {
			v81 = v80
		}
		vals[81] = v81
		var v82 uint64
		if v17 != 0 {
			v82 = v13
		} else {
			v82 = v28
		}
		vals[82] = v82
		var v83 uint64
		if v17 != 0 {
			v83 = v16
		} else {
			v83 = v75
		}
		vals[83] = v83
		v84 := (v17 | v79)
		vals[84] = v84
		v92 := v79 & v91
		vals[92] = v92
		var v94 uint64
		if v2 == 0x5 {
			v94 = 1
		}
		vals[94] = v94
		v95 := v94 & v90
		vals[95] = v95
		v96 := (v92 | v95)
		vals[96] = v96
		var v104 uint64
		if v96 != 0 {
			v104 = 0x17
		} else {
			v104 = v103
		}
		vals[104] = v104
		var v116 uint64
		if v2 == 0x3 {
			v116 = 1
		}
		vals[116] = v116
		v118 := v116 & v117
		vals[118] = v118
		var v126 uint64
		if v118 != 0 {
			v126 = 0x9
		} else {
			v126 = v125
		}
		vals[126] = v126
		v246 := v116 & v245
		vals[246] = v246
		var v248 uint64
		if v2 == 0x4 {
			v248 = 1
		}
		vals[248] = v248
		var v249 uint64
		if v248 != 0 {
			v249 = v244
		} else {
			v249 = v132
		}
		vals[249] = v249
		var v250 uint64
		if v246 != 0 {
			v250 = v115
		} else {
			v250 = v249
		}
		vals[250] = v250
		v314 := v116 & v313
		vals[314] = v314
		var v315 uint64
		if v248 != 0 {
			v315 = v312
		} else {
			v315 = v133
		}
		vals[315] = v315
		var v316 uint64
		if v314 != 0 {
			v316 = v115
		} else {
			v316 = v315
		}
		vals[316] = v316
		v382 := v116 & v381
		vals[382] = v382
		var v383 uint64
		if v248 != 0 {
			v383 = v379
		} else {
			v383 = v134
		}
		vals[383] = v383
		var v384 uint64
		if v382 != 0 {
			v384 = v115
		} else {
			v384 = v383
		}
		vals[384] = v384
		v450 := v116 & v449
		vals[450] = v450
		var v451 uint64
		if v248 != 0 {
			v451 = v447
		} else {
			v451 = v135
		}
		vals[451] = v451
		var v452 uint64
		if v450 != 0 {
			v452 = v115
		} else {
			v452 = v451
		}
		vals[452] = v452
		var v457 uint64
		if v95 != 0 {
			v457 = v456
		} else {
			v457 = v86
		}
		vals[457] = v457
		var v458 uint64
		if v4 != 0 {
			v458 = v87
		} else {
			v458 = v457
		}
		vals[458] = v458
		var v462 uint64
		if v94 != 0 {
			v462 = v461
		} else {
			v462 = v2
		}
		vals[462] = v462
		var v463 uint64
		if v131 != 0 {
			v463 = 0x5
		} else {
			v463 = v2
		}
		vals[463] = v463
		var v464 uint64
		if v248 != 0 {
			v464 = v463
		} else {
			v464 = v462
		}
		vals[464] = v464
		var v465 uint64
		if v117 != 0 {
			v465 = 0x4
		} else {
			v465 = v2
		}
		vals[465] = v465
		var v466 uint64
		if v116 != 0 {
			v466 = v465
		} else {
			v466 = v464
		}
		vals[466] = v466
		var v467 uint64
		if v91 != 0 {
			v467 = 0x3
		} else {
			v467 = v2
		}
		vals[467] = v467
		var v468 uint64
		if v79 != 0 {
			v468 = v467
		} else {
			v468 = v466
		}
		vals[468] = v468
		var v469 uint64
		if v18 != 0 {
			v469 = 0x2
		} else {
			v469 = v2
		}
		vals[469] = v469
		var v470 uint64
		if v17 != 0 {
			v470 = v469
		} else {
			v470 = v468
		}
		vals[470] = v470
		var v471 uint64
		if v4 != 0 {
			v471 = 0x1
		} else {
			v471 = v470
		}
		vals[471] = v471
		var v472 uint64
		if v2 == 0x6 {
			v472 = 1
		}
		vals[472] = v472
		var v473 uint64
		if v471 == 0x1 {
			v473 = 1
		}
		vals[473] = v473
		v474 := v4 & v473
		vals[474] = v474
		var v478 uint64
		if v474 != 0 {
			v478 = v477
		} else {
			v478 = v476
		}
		vals[478] = v478
		var v479 uint64
		if v471 == 0x2 {
			v479 = 1
		}
		vals[479] = v479
		v480 := v17 & v479
		vals[480] = v480
		var v483 uint64
		if v480 != 0 {
			v483 = v482
		} else {
			v483 = v481
		}
		vals[483] = v483
		var v484 uint64
		if v471 == 0x3 {
			v484 = 1
		}
		vals[484] = v484
		v485 := v79 & v484
		vals[485] = v485
		var v488 uint64
		if v485 != 0 {
			v488 = v487
		} else {
			v488 = v486
		}
		vals[488] = v488
		var v489 uint64
		if v471 == 0x4 {
			v489 = 1
		}
		vals[489] = v489
		v490 := v116 & v489
		vals[490] = v490
		var v493 uint64
		if v490 != 0 {
			v493 = v492
		} else {
			v493 = v491
		}
		vals[493] = v493
		var v494 uint64
		if v471 == 0x5 {
			v494 = 1
		}
		vals[494] = v494
		v495 := v248 & v494
		vals[495] = v495
		var v498 uint64
		if v495 != 0 {
			v498 = v497
		} else {
			v498 = v496
		}
		vals[498] = v498
		var v499 uint64
		if v471 == 0x6 {
			v499 = 1
		}
		vals[499] = v499
		v500 := v94 & v499
		vals[500] = v500
		var v503 uint64
		if v500 != 0 {
			v503 = v502
		} else {
			v503 = v501
		}
		vals[503] = v503
		v504 := v94 & v484
		vals[504] = v504
		var v507 uint64
		if v504 != 0 {
			v507 = v506
		} else {
			v507 = v505
		}
		vals[507] = v507
		var v510 uint64
		if v4 != 0 {
			v510 = v509
		} else {
			v510 = v508
		}
		vals[510] = v510
		var v513 uint64
		if v4 != 0 {
			v513 = v512
		} else {
			v513 = v511
		}
		vals[513] = v513
		var v516 uint64
		if v4 != 0 {
			v516 = v515
		} else {
			v516 = v514
		}
		vals[516] = v516
		var v519 uint64
		if v19 != 0 {
			v519 = v518
		} else {
			v519 = v517
		}
		vals[519] = v519
		var v522 uint64
		if v19 != 0 {
			v522 = v521
		} else {
			v522 = v520
		}
		vals[522] = v522
		var v525 uint64
		if v19 != 0 {
			v525 = v524
		} else {
			v525 = v523
		}
		vals[525] = v525
		var v528 uint64
		if v4 != 0 {
			v528 = v527
		} else {
			v528 = v526
		}
		vals[528] = v528
		var v531 uint64
		if v4 != 0 {
			v531 = v530
		} else {
			v531 = v529
		}
		vals[531] = v531
		var v534 uint64
		if v4 != 0 {
			v534 = v533
		} else {
			v534 = v532
		}
		vals[534] = v534
		var v537 uint64
		if v96 != 0 {
			v537 = v536
		} else {
			v537 = v535
		}
		vals[537] = v537
		var v540 uint64
		if v96 != 0 {
			v540 = v539
		} else {
			v540 = v538
		}
		vals[540] = v540
		var v543 uint64
		if v96 != 0 {
			v543 = v542
		} else {
			v543 = v541
		}
		vals[543] = v543
		var v546 uint64
		if v118 != 0 {
			v546 = v545
		} else {
			v546 = v544
		}
		vals[546] = v546
		var v549 uint64
		if v118 != 0 {
			v549 = v548
		} else {
			v549 = v547
		}
		vals[549] = v549
		var v552 uint64
		if v118 != 0 {
			v552 = v551
		} else {
			v552 = v550
		}
		vals[552] = v552
	}
	done := vals[472] != 0
	if vals[84] != 0 {
		if addr := vals[82]; addr < uint64(len(m2)) {
			m2[addr] = vals[83]
		}
	}
	if vals[94] != 0 {
		if addr := vals[252]; addr < uint64(len(m1)) {
			m1[addr] = vals[132]
		}
	}
	if vals[94] != 0 {
		if addr := vals[318]; addr < uint64(len(m1)) {
			m1[addr] = vals[133]
		}
	}
	if vals[94] != 0 {
		if addr := vals[387]; addr < uint64(len(m1)) {
			m1[addr] = vals[134]
		}
	}
	if vals[94] != 0 {
		if addr := vals[455]; addr < uint64(len(m1)) {
			m1[addr] = vals[135]
		}
	}
	l0 := vals[471] & 0x7
	l1 := vals[11] & 0x7
	l2 := vals[26] & 0x3f
	l3 := vals[81] & 0xffffffff
	l4 := vals[458] & 0xffff
	l5 := vals[104] & 0x1f
	l6 := vals[126] & 0xf
	l7 := vals[250] & 0xffffffff
	l8 := vals[316] & 0xffffffff
	l9 := vals[384] & 0xffffffff
	l10 := vals[452] & 0xffffffff
	l11 := vals[478] & 0xffffff
	l12 := vals[483] & 0xffffff
	l13 := vals[488] & 0xffffff
	l14 := vals[493] & 0xffffff
	l15 := vals[498] & 0xffffff
	l16 := vals[503] & 0xffffff
	l17 := vals[507] & 0xffffff
	l18 := vals[510] & 0xffffff
	l19 := vals[513] & 0xffffff
	l20 := vals[516] & 0xffffff
	l21 := vals[519] & 0xffffff
	l22 := vals[522] & 0xffffff
	l23 := vals[525] & 0xffffff
	l24 := vals[528] & 0xffffff
	l25 := vals[531] & 0xffffff
	l26 := vals[534] & 0xffffff
	l27 := vals[537] & 0xffffff
	l28 := vals[540] & 0xffffff
	l29 := vals[543] & 0xffffff
	l30 := vals[546] & 0xffffff
	l31 := vals[549] & 0xffffff
	l32 := vals[552] & 0xffffff
	vals[2] = l0
	vals[6] = l1
	vals[21] = l2
	vals[32] = l3
	vals[86] = l4
	vals[98] = l5
	vals[120] = l6
	vals[132] = l7
	vals[133] = l8
	vals[134] = l9
	vals[135] = l10
	vals[476] = l11
	vals[481] = l12
	vals[486] = l13
	vals[491] = l14
	vals[496] = l15
	vals[501] = l16
	vals[505] = l17
	vals[508] = l18
	vals[511] = l19
	vals[514] = l20
	vals[517] = l21
	vals[520] = l22
	vals[523] = l23
	vals[526] = l24
	vals[529] = l25
	vals[532] = l26
	vals[535] = l27
	vals[538] = l28
	vals[541] = l29
	vals[544] = l30
	vals[547] = l31
	vals[550] = l32
	return cycles + 1, done
}

func step_aes_pruned(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[548]
	m0 := mems[0]
	m1 := mems[1]
	m2 := mems[2]
	m3 := mems[3]
	m4 := mems[4]
	v0 := vals[0]
	v5 := vals[5]
	v10 := vals[10]
	v16 := vals[16]
	v22 := vals[22]
	v28 := vals[28]
	v50 := vals[50]
	v129 := vals[129]
	v149 := vals[149]
	v156 := vals[156]
	v163 := vals[163]
	v456 := vals[456]
	v462 := vals[462]
	v467 := vals[467]
	v472 := vals[472]
	v477 := vals[477]
	v482 := vals[482]
	v487 := vals[487]
	v491 := vals[491]
	v494 := vals[494]
	v497 := vals[497]
	v500 := vals[500]
	v503 := vals[503]
	v506 := vals[506]
	v509 := vals[509]
	v512 := vals[512]
	v515 := vals[515]
	v518 := vals[518]
	v521 := vals[521]
	v524 := vals[524]
	v527 := vals[527]
	v530 := vals[530]
	v533 := vals[533]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v45 uint64
		if v10 != 0x0 {
			v45 = 1
		}
		v47 := (v10 - 0x1) & 0x3f
		var v48 uint64
		if v45 != 0 {
			v48 = v47
		} else {
			v48 = v10
		}
		var v117 uint64
		if v16 != 0x0 {
			v117 = 1
		}
		v119 := (v16 - 0x1) & 0x1f
		var v120 uint64
		if v117 != 0 {
			v120 = v119
		} else {
			v120 = v16
		}
		var v124 uint64
		if v22 != 0x0 {
			v124 = 1
		}
		v126 := (v22 - 0x1) & 0xf
		var v127 uint64
		if v124 != 0 {
			v127 = v126
		} else {
			v127 = v22
		}
		switch v0 {
		case 0x0:
			var v106 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v106 = m0[addr] & 0xffff
			}
			v108 := (v106 - 0x1) & 0xffff
			v460 := (v456 + 0x1) & 0xffffff
			v492 := (v491 + 0x1) & 0xffffff
			v495 := (v494 + 0x3) & 0xffffff
			v498 := (v497 + v5) & 0xffffff
			v510 := (v509 + 0x1) & 0xffffff
			v513 := (v512 + v108) & 0xffffff
			v516 := (v515 + v28) & 0xffffff
			v49 := v48
			v103 := v50
			v104 := v103
			v113 := v108
			v121 := v120
			v128 := v127
			v226 := v129
			v227 := v226
			v301 := v149
			v302 := v301
			v378 := v156
			v379 := v378
			v454 := v163
			v455 := v454
			v461 := v460
			v466 := v462
			v471 := v467
			v476 := v472
			v481 := v477
			v486 := v482
			v490 := v487
			v493 := v492
			v496 := v495
			v499 := v498
			v502 := v500
			v505 := v503
			v508 := v506
			v511 := v510
			v514 := v513
			v517 := v516
			v520 := v518
			v523 := v521
			v526 := v524
			v529 := v527
			v532 := v530
			v535 := v533
			n2 := v49
			n3 := v104
			n4 := v113
			n5 := v121
			n6 := v128
			n7 := v227
			n8 := v302
			n9 := v379
			n10 := v455
			n11 := v461
			n12 := v466
			n13 := v471
			n14 := v476
			n15 := v481
			n16 := v486
			n17 := v490
			n18 := v493
			n19 := v496
			n20 := v499
			n21 := v502
			n22 := v505
			n23 := v508
			n24 := v511
			n25 := v514
			n26 := v517
			n27 := v520
			n28 := v523
			n29 := v526
			n30 := v529
			n31 := v532
			n32 := v535
			v0 = 0x1
			v5 = 0x3
			v10 = n2
			v50 = n3
			v28 = n4
			v16 = n5
			v22 = n6
			v129 = n7
			v149 = n8
			v156 = n9
			v163 = n10
			v456 = n11
			v462 = n12
			v467 = n13
			v472 = n14
			v477 = n15
			v482 = n16
			v487 = n17
			v491 = n18
			v494 = n19
			v497 = n20
			v500 = n21
			v503 = n22
			v506 = n23
			v509 = n24
			v512 = n25
			v515 = n26
			v518 = n27
			v521 = n28
			v524 = n29
			v527 = n30
			v530 = n31
			v533 = n32
		case 0x1:
			var v6 uint64
			if v5 == 0x0 {
				v6 = 1
			}
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v40 := (v5 - 0x1) & 0x7
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v5
			}
			v52 := (0x3 - v5) & 0x3f
			var v53 uint64
			if v52 == 0x3 {
				v53 = 1
			}
			v55 := (v52 + 0x1) & 0x3f
			var v56 uint64
			if addr := uint64(v55); addr < uint64(len(m0)) {
				v56 = m0[addr] & 0xffffffff
			}
			v465 := (v462 + 0x1) & 0xffffff
			v501 := (v500 + 0x1) & 0xffffff
			v504 := (v503 + 0x27) & 0xffffff
			v507 := (v506 + v10) & 0xffffff
			var v8 uint64
			if v6 != 0 {
				v8 = 0x2
			} else {
				v8 = 0x1
			}
			v37 := v8
			v38 := v37
			v42 := v41
			v43 := v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := v53
			v103 := v50
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v112 := v28
			v113 := v112
			v121 := v120
			v128 := v127
			v226 := v129
			v227 := v226
			v301 := v149
			v302 := v301
			v378 := v156
			v379 := v378
			v454 := v163
			v455 := v454
			v461 := v456
			var v463 uint64
			if v38 == 0x2 {
				v463 = 1
			}
			v464 := v463
			var v466 uint64
			if v464 != 0 {
				v466 = v465
			} else {
				v466 = v462
			}
			v471 := v467
			v476 := v472
			v481 := v477
			v486 := v482
			v490 := v487
			v493 := v491
			v496 := v494
			v499 := v497
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			v511 := v509
			v514 := v512
			v517 := v515
			v520 := v518
			v523 := v521
			v526 := v524
			v529 := v527
			v532 := v530
			v535 := v533
			v537 := v52
			v538 := v56
			if addr := uint64(v537); addr < uint64(len(m1)) {
				m1[addr] = v538
			}
			n0 := v38
			n1 := v42
			n2 := v49
			n3 := v104
			n4 := v113
			n5 := v121
			n6 := v128
			n7 := v227
			n8 := v302
			n9 := v379
			n10 := v455
			n11 := v461
			n12 := v466
			n13 := v471
			n14 := v476
			n15 := v481
			n16 := v486
			n17 := v490
			n18 := v493
			n19 := v496
			n20 := v499
			n21 := v502
			n22 := v505
			n23 := v508
			n24 := v511
			n25 := v514
			n26 := v517
			n27 := v520
			n28 := v523
			n29 := v526
			n30 := v529
			n31 := v532
			n32 := v535
			v0 = n0
			v5 = n1
			v10 = n2
			v50 = n3
			v28 = n4
			v16 = n5
			v22 = n6
			v129 = n7
			v149 = n8
			v156 = n9
			v163 = n10
			v456 = n11
			v462 = n12
			v467 = n13
			v472 = n14
			v477 = n15
			v482 = n16
			v487 = n17
			v491 = n18
			v494 = n19
			v497 = n20
			v500 = n21
			v503 = n22
			v506 = n23
			v509 = n24
			v512 = n25
			v515 = n26
			v518 = n27
			v521 = n28
			v524 = n29
			v527 = n30
			v530 = n31
			v533 = n32
		case 0x2:
			var v12 uint64
			if v10 == 0x0 {
				v12 = 1
			}
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v40 := (v5 - 0x1) & 0x7
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v5
			}
			v58 := (0x2b - v10) & 0x3f
			v60 := (v58 - 0x4) & 0x3f
			var v61 uint64
			if addr := uint64(v60); addr < uint64(len(m1)) {
				v61 = m1[addr] & 0xffffffff
			}
			v62 := v58 & 0x3
			var v64 uint64
			if v62 == 0x0 {
				v64 = 1
			}
			v66 := (v50 << 8) & 0xffffffff
			v68 := (v50 >> 24)
			v69 := (v66 | v68)
			v70 := (v69 >> 24)
			v72 := v70 & 0xff
			var v73 uint64
			if addr := uint64(v72); addr < uint64(len(m2)) {
				v73 = m2[addr] & 0xff
			}
			v75 := v73
			v76 := (v75 << 24) & 0xffffffff
			v78 := (v69 >> 16)
			v79 := v78 & 0xff
			var v80 uint64
			if addr := uint64(v79); addr < uint64(len(m2)) {
				v80 = m2[addr] & 0xff
			}
			v81 := v80
			v82 := (v81 << 16) & 0xffffffff
			v83 := (v76 | v82)
			v84 := (v69 >> 8)
			v85 := v84 & 0xff
			var v86 uint64
			if addr := uint64(v85); addr < uint64(len(m2)) {
				v86 = m2[addr] & 0xff
			}
			v87 := v86
			v88 := (v87 << 8) & 0xffffffff
			v89 := (v83 | v88)
			v90 := v69 & 0xff
			var v91 uint64
			if addr := uint64(v90); addr < uint64(len(m2)) {
				v91 = m2[addr] & 0xff
			}
			v92 := v91
			v93 := (v89 | v92)
			v95 := (v58 >> 2)
			v96 := (v95 - 0x1) & 0x3f
			v98 := v96 & 0xf
			var v99 uint64
			if addr := uint64(v98); addr < uint64(len(m3)) {
				v99 = m3[addr] & 0xffffffff
			}
			v100 := (v93 ^ v99)
			var v101 uint64
			if v64 != 0 {
				v101 = v100
			} else {
				v101 = v50
			}
			v102 := (v61 ^ v101)
			v470 := (v467 + 0x1) & 0xffffff
			v519 := (v518 + 0x1) & 0xffffff
			v522 := (v521 + 0x17) & 0xffffff
			v525 := (v524 + v16) & 0xffffff
			var v14 uint64
			if v12 != 0 {
				v14 = 0x3
			} else {
				v14 = 0x2
			}
			v36 := v14
			v37 := v36
			v38 := v37
			v42 := v41
			v49 := v48
			v103 := v102
			v104 := v103
			v112 := v28
			v113 := v112
			v114 := v12
			v115 := v114
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v128 := v127
			v226 := v129
			v227 := v226
			v301 := v149
			v302 := v301
			v378 := v156
			v379 := v378
			v454 := v163
			v455 := v454
			v461 := v456
			v466 := v462
			var v468 uint64
			if v38 == 0x3 {
				v468 = 1
			}
			v469 := v468
			var v471 uint64
			if v469 != 0 {
				v471 = v470
			} else {
				v471 = v467
			}
			v476 := v472
			v481 := v477
			v486 := v482
			v490 := v487
			v493 := v491
			v496 := v494
			v499 := v497
			v502 := v500
			v505 := v503
			v508 := v506
			v511 := v509
			v514 := v512
			v517 := v515
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			v529 := v527
			v532 := v530
			v535 := v533
			v537 := v58
			v538 := v102
			if addr := uint64(v537); addr < uint64(len(m1)) {
				m1[addr] = v538
			}
			n0 := v38
			n1 := v42
			n2 := v49
			n3 := v104
			n4 := v113
			n5 := v121
			n6 := v128
			n7 := v227
			n8 := v302
			n9 := v379
			n10 := v455
			n11 := v461
			n12 := v466
			n13 := v471
			n14 := v476
			n15 := v481
			n16 := v486
			n17 := v490
			n18 := v493
			n19 := v496
			n20 := v499
			n21 := v502
			n22 := v505
			n23 := v508
			n24 := v511
			n25 := v514
			n26 := v517
			n27 := v520
			n28 := v523
			n29 := v526
			n30 := v529
			n31 := v532
			n32 := v535
			v0 = n0
			v5 = n1
			v10 = n2
			v50 = n3
			v28 = n4
			v16 = n5
			v22 = n6
			v129 = n7
			v149 = n8
			v156 = n9
			v163 = n10
			v456 = n11
			v462 = n12
			v467 = n13
			v472 = n14
			v477 = n15
			v482 = n16
			v487 = n17
			v491 = n18
			v494 = n19
			v497 = n20
			v500 = n21
			v503 = n22
			v506 = n23
			v509 = n24
			v512 = n25
			v515 = n26
			v518 = n27
			v521 = n28
			v524 = n29
			v527 = n30
			v530 = n31
			v533 = n32
		case 0x3:
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v40 := (v5 - 0x1) & 0x7
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v5
			}
			var v106 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v106 = m0[addr] & 0xffff
			}
			v108 := (v106 - 0x1) & 0xffff
			v130 := (0x17 - v16) & 0x1f
			var v131 uint64
			if v130 == 0x0 {
				v131 = 1
			}
			v133 := (v108 - v28) & 0xffff
			v134 := (v133 << 2) & 0xffff
			v135 := v130
			v136 := (v134 + v135) & 0xffff
			v138 := (v136 + 0x5) & 0xffff
			v140 := v138 & 0x3ff
			var v141 uint64
			if addr := uint64(v140); addr < uint64(len(m0)) {
				v141 = m0[addr] & 0xffffffff
			}
			var v142 uint64
			if addr := uint64(v130); addr < uint64(len(m1)) {
				v142 = m1[addr] & 0xffffffff
			}
			v143 := (v141 ^ v142)
			var v228 uint64
			if v130 == 0x1 {
				v228 = 1
			}
			var v304 uint64
			if v130 == 0x2 {
				v304 = 1
			}
			var v381 uint64
			if v130 == 0x3 {
				v381 = 1
			}
			v475 := (v472 + 0x1) & 0xffffff
			v528 := (v527 + 0x1) & 0xffffff
			v531 := (v530 + 0x9) & 0xffffff
			v534 := (v533 + v22) & 0xffffff
			var v20 uint64
			if v18 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x3
			}
			v35 := v20
			v36 := v35
			v37 := v36
			v38 := v37
			v42 := v41
			v49 := v48
			v103 := v50
			v104 := v103
			v112 := v28
			v113 := v112
			v121 := v120
			v122 := v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := v131
			v226 := v129
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := v228
			v301 := v149
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := v304
			v378 := v156
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := v381
			v454 := v163
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			v461 := v456
			v466 := v462
			v471 := v467
			var v473 uint64
			if v38 == 0x4 {
				v473 = 1
			}
			v474 := v473
			var v476 uint64
			if v474 != 0 {
				v476 = v475
			} else {
				v476 = v472
			}
			v481 := v477
			v486 := v482
			v490 := v487
			v493 := v491
			v496 := v494
			v499 := v497
			v502 := v500
			v505 := v503
			v508 := v506
			v511 := v509
			v514 := v512
			v517 := v515
			v520 := v518
			v523 := v521
			v526 := v524
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			n0 := v38
			n1 := v42
			n2 := v49
			n3 := v104
			n4 := v113
			n5 := v121
			n6 := v128
			n7 := v227
			n8 := v302
			n9 := v379
			n10 := v455
			n11 := v461
			n12 := v466
			n13 := v471
			n14 := v476
			n15 := v481
			n16 := v486
			n17 := v490
			n18 := v493
			n19 := v496
			n20 := v499
			n21 := v502
			n22 := v505
			n23 := v508
			n24 := v511
			n25 := v514
			n26 := v517
			n27 := v520
			n28 := v523
			n29 := v526
			n30 := v529
			n31 := v532
			n32 := v535
			v0 = n0
			v5 = n1
			v10 = n2
			v50 = n3
			v28 = n4
			v16 = n5
			v22 = n6
			v129 = n7
			v149 = n8
			v156 = n9
			v163 = n10
			v456 = n11
			v462 = n12
			v467 = n13
			v472 = n14
			v477 = n15
			v482 = n16
			v487 = n17
			v491 = n18
			v494 = n19
			v497 = n20
			v500 = n21
			v503 = n22
			v506 = n23
			v509 = n24
			v512 = n25
			v515 = n26
			v518 = n27
			v521 = n28
			v524 = n29
			v527 = n30
			v530 = n31
			v533 = n32
		case 0x4:
			var v24 uint64
			if v22 == 0x0 {
				v24 = 1
			}
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v40 := (v5 - 0x1) & 0x7
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v5
			}
			v144 := (v129 >> 24)
			v145 := v144 & 0xff
			var v146 uint64
			if addr := uint64(v145); addr < uint64(len(m2)) {
				v146 = m2[addr] & 0xff
			}
			v147 := v146
			v148 := (v147 << 24) & 0xffffffff
			v150 := (v149 >> 16)
			v151 := v150 & 0xff
			var v152 uint64
			if addr := uint64(v151); addr < uint64(len(m2)) {
				v152 = m2[addr] & 0xff
			}
			v153 := v152
			v154 := (v153 << 16) & 0xffffffff
			v155 := (v148 | v154)
			v157 := (v156 >> 8)
			v158 := v157 & 0xff
			var v159 uint64
			if addr := uint64(v158); addr < uint64(len(m2)) {
				v159 = m2[addr] & 0xff
			}
			v160 := v159
			v161 := (v160 << 8) & 0xffffffff
			v162 := (v155 | v161)
			v164 := v163 & 0xff
			var v165 uint64
			if addr := uint64(v164); addr < uint64(len(m2)) {
				v165 = m2[addr] & 0xff
			}
			v166 := v165
			v167 := (v162 | v166)
			v169 := (v146 << 1) & 0xff
			v171 := (v146 >> 7)
			v173 := v171 & 0x1
			var v176 uint64
			if v173 != 0 {
				v176 = 0x1b
			} else {
				v176 = 0x0
			}
			v177 := (v169 ^ v176)
			v178 := (v152 << 1) & 0xff
			v179 := (v152 >> 7)
			v180 := v179 & 0x1
			var v181 uint64
			if v180 != 0 {
				v181 = 0x1b
			} else {
				v181 = 0x0
			}
			v182 := (v178 ^ v181)
			v183 := (v182 ^ v152)
			v184 := (v177 ^ v183)
			v185 := (v184 ^ v159)
			v186 := (v185 ^ v165)
			v187 := v186
			v188 := (v187 << 24) & 0xffffffff
			v189 := (v146 ^ v182)
			v190 := (v159 << 1) & 0xff
			v191 := (v159 >> 7)
			v192 := v191 & 0x1
			var v193 uint64
			if v192 != 0 {
				v193 = 0x1b
			} else {
				v193 = 0x0
			}
			v194 := (v190 ^ v193)
			v195 := (v194 ^ v159)
			v196 := (v189 ^ v195)
			v197 := (v196 ^ v165)
			v198 := v197
			v199 := (v198 << 16) & 0xffffffff
			v200 := (v188 | v199)
			v201 := (v146 ^ v152)
			v202 := (v201 ^ v194)
			v203 := (v165 << 1) & 0xff
			v204 := (v165 >> 7)
			v205 := v204 & 0x1
			var v206 uint64
			if v205 != 0 {
				v206 = 0x1b
			} else {
				v206 = 0x0
			}
			v207 := (v203 ^ v206)
			v208 := (v207 ^ v165)
			v209 := (v202 ^ v208)
			v210 := v209
			v211 := (v210 << 8) & 0xffffffff
			v212 := (v200 | v211)
			v213 := (v177 ^ v146)
			v214 := (v213 ^ v152)
			v215 := (v214 ^ v159)
			v216 := (v215 ^ v207)
			v217 := v216
			v218 := (v212 | v217)
			var v219 uint64
			if v24 != 0 {
				v219 = v167
			} else {
				v219 = v218
			}
			v221 := v22
			v222 := (v221 << 2) & 0x3f
			v223 := (0x28 - v222) & 0x3f
			var v224 uint64
			if addr := uint64(v223); addr < uint64(len(m1)) {
				v224 = m1[addr] & 0xffffffff
			}
			v225 := (v219 ^ v224)
			v230 := (v149 >> 24)
			v231 := v230 & 0xff
			var v232 uint64
			if addr := uint64(v231); addr < uint64(len(m2)) {
				v232 = m2[addr] & 0xff
			}
			v233 := v232
			v234 := (v233 << 24) & 0xffffffff
			v235 := (v156 >> 16)
			v236 := v235 & 0xff
			var v237 uint64
			if addr := uint64(v236); addr < uint64(len(m2)) {
				v237 = m2[addr] & 0xff
			}
			v238 := v237
			v239 := (v238 << 16) & 0xffffffff
			v240 := (v234 | v239)
			v241 := (v163 >> 8)
			v242 := v241 & 0xff
			var v243 uint64
			if addr := uint64(v242); addr < uint64(len(m2)) {
				v243 = m2[addr] & 0xff
			}
			v244 := v243
			v245 := (v244 << 8) & 0xffffffff
			v246 := (v240 | v245)
			v247 := v129 & 0xff
			var v248 uint64
			if addr := uint64(v247); addr < uint64(len(m2)) {
				v248 = m2[addr] & 0xff
			}
			v249 := v248
			v250 := (v246 | v249)
			v251 := (v232 << 1) & 0xff
			v252 := (v232 >> 7)
			v253 := v252 & 0x1
			var v254 uint64
			if v253 != 0 {
				v254 = 0x1b
			} else {
				v254 = 0x0
			}
			v255 := (v251 ^ v254)
			v256 := (v237 << 1) & 0xff
			v257 := (v237 >> 7)
			v258 := v257 & 0x1
			var v259 uint64
			if v258 != 0 {
				v259 = 0x1b
			} else {
				v259 = 0x0
			}
			v260 := (v256 ^ v259)
			v261 := (v260 ^ v237)
			v262 := (v255 ^ v261)
			v263 := (v262 ^ v243)
			v264 := (v263 ^ v248)
			v265 := v264
			v266 := (v265 << 24) & 0xffffffff
			v267 := (v232 ^ v260)
			v268 := (v243 << 1) & 0xff
			v269 := (v243 >> 7)
			v270 := v269 & 0x1
			var v271 uint64
			if v270 != 0 {
				v271 = 0x1b
			} else {
				v271 = 0x0
			}
			v272 := (v268 ^ v271)
			v273 := (v272 ^ v243)
			v274 := (v267 ^ v273)
			v275 := (v274 ^ v248)
			v276 := v275
			v277 := (v276 << 16) & 0xffffffff
			v278 := (v266 | v277)
			v279 := (v232 ^ v237)
			v280 := (v279 ^ v272)
			v281 := (v248 << 1) & 0xff
			v282 := (v248 >> 7)
			v283 := v282 & 0x1
			var v284 uint64
			if v283 != 0 {
				v284 = 0x1b
			} else {
				v284 = 0x0
			}
			v285 := (v281 ^ v284)
			v286 := (v285 ^ v248)
			v287 := (v280 ^ v286)
			v288 := v287
			v289 := (v288 << 8) & 0xffffffff
			v290 := (v278 | v289)
			v291 := (v255 ^ v232)
			v292 := (v291 ^ v237)
			v293 := (v292 ^ v243)
			v294 := (v293 ^ v285)
			v295 := v294
			v296 := (v290 | v295)
			var v297 uint64
			if v24 != 0 {
				v297 = v250
			} else {
				v297 = v296
			}
			v298 := (v223 + 0x1) & 0x3f
			var v299 uint64
			if addr := uint64(v298); addr < uint64(len(m1)) {
				v299 = m1[addr] & 0xffffffff
			}
			v300 := (v297 ^ v299)
			v306 := (v156 >> 24)
			v307 := v306 & 0xff
			var v308 uint64
			if addr := uint64(v307); addr < uint64(len(m2)) {
				v308 = m2[addr] & 0xff
			}
			v309 := v308
			v310 := (v309 << 24) & 0xffffffff
			v311 := (v163 >> 16)
			v312 := v311 & 0xff
			var v313 uint64
			if addr := uint64(v312); addr < uint64(len(m2)) {
				v313 = m2[addr] & 0xff
			}
			v314 := v313
			v315 := (v314 << 16) & 0xffffffff
			v316 := (v310 | v315)
			v317 := (v129 >> 8)
			v318 := v317 & 0xff
			var v319 uint64
			if addr := uint64(v318); addr < uint64(len(m2)) {
				v319 = m2[addr] & 0xff
			}
			v320 := v319
			v321 := (v320 << 8) & 0xffffffff
			v322 := (v316 | v321)
			v323 := v149 & 0xff
			var v324 uint64
			if addr := uint64(v323); addr < uint64(len(m2)) {
				v324 = m2[addr] & 0xff
			}
			v325 := v324
			v326 := (v322 | v325)
			v327 := (v308 << 1) & 0xff
			v328 := (v308 >> 7)
			v329 := v328 & 0x1
			var v330 uint64
			if v329 != 0 {
				v330 = 0x1b
			} else {
				v330 = 0x0
			}
			v331 := (v327 ^ v330)
			v332 := (v313 << 1) & 0xff
			v333 := (v313 >> 7)
			v334 := v333 & 0x1
			var v335 uint64
			if v334 != 0 {
				v335 = 0x1b
			} else {
				v335 = 0x0
			}
			v336 := (v332 ^ v335)
			v337 := (v336 ^ v313)
			v338 := (v331 ^ v337)
			v339 := (v338 ^ v319)
			v340 := (v339 ^ v324)
			v341 := v340
			v342 := (v341 << 24) & 0xffffffff
			v343 := (v308 ^ v336)
			v344 := (v319 << 1) & 0xff
			v345 := (v319 >> 7)
			v346 := v345 & 0x1
			var v347 uint64
			if v346 != 0 {
				v347 = 0x1b
			} else {
				v347 = 0x0
			}
			v348 := (v344 ^ v347)
			v349 := (v348 ^ v319)
			v350 := (v343 ^ v349)
			v351 := (v350 ^ v324)
			v352 := v351
			v353 := (v352 << 16) & 0xffffffff
			v354 := (v342 | v353)
			v355 := (v308 ^ v313)
			v356 := (v355 ^ v348)
			v357 := (v324 << 1) & 0xff
			v358 := (v324 >> 7)
			v359 := v358 & 0x1
			var v360 uint64
			if v359 != 0 {
				v360 = 0x1b
			} else {
				v360 = 0x0
			}
			v361 := (v357 ^ v360)
			v362 := (v361 ^ v324)
			v363 := (v356 ^ v362)
			v364 := v363
			v365 := (v364 << 8) & 0xffffffff
			v366 := (v354 | v365)
			v367 := (v331 ^ v308)
			v368 := (v367 ^ v313)
			v369 := (v368 ^ v319)
			v370 := (v369 ^ v361)
			v371 := v370
			v372 := (v366 | v371)
			var v373 uint64
			if v24 != 0 {
				v373 = v326
			} else {
				v373 = v372
			}
			v375 := (v223 + 0x2) & 0x3f
			var v376 uint64
			if addr := uint64(v375); addr < uint64(len(m1)) {
				v376 = m1[addr] & 0xffffffff
			}
			v377 := (v373 ^ v376)
			v383 := (v163 >> 24)
			v384 := v383 & 0xff
			var v385 uint64
			if addr := uint64(v384); addr < uint64(len(m2)) {
				v385 = m2[addr] & 0xff
			}
			v386 := v385
			v387 := (v386 << 24) & 0xffffffff
			v388 := (v129 >> 16)
			v389 := v388 & 0xff
			var v390 uint64
			if addr := uint64(v389); addr < uint64(len(m2)) {
				v390 = m2[addr] & 0xff
			}
			v391 := v390
			v392 := (v391 << 16) & 0xffffffff
			v393 := (v387 | v392)
			v394 := (v149 >> 8)
			v395 := v394 & 0xff
			var v396 uint64
			if addr := uint64(v395); addr < uint64(len(m2)) {
				v396 = m2[addr] & 0xff
			}
			v397 := v396
			v398 := (v397 << 8) & 0xffffffff
			v399 := (v393 | v398)
			v400 := v156 & 0xff
			var v401 uint64
			if addr := uint64(v400); addr < uint64(len(m2)) {
				v401 = m2[addr] & 0xff
			}
			v402 := v401
			v403 := (v399 | v402)
			v404 := (v385 << 1) & 0xff
			v405 := (v385 >> 7)
			v406 := v405 & 0x1
			var v407 uint64
			if v406 != 0 {
				v407 = 0x1b
			} else {
				v407 = 0x0
			}
			v408 := (v404 ^ v407)
			v409 := (v390 << 1) & 0xff
			v410 := (v390 >> 7)
			v411 := v410 & 0x1
			var v412 uint64
			if v411 != 0 {
				v412 = 0x1b
			} else {
				v412 = 0x0
			}
			v413 := (v409 ^ v412)
			v414 := (v413 ^ v390)
			v415 := (v408 ^ v414)
			v416 := (v415 ^ v396)
			v417 := (v416 ^ v401)
			v418 := v417
			v419 := (v418 << 24) & 0xffffffff
			v420 := (v385 ^ v413)
			v421 := (v396 << 1) & 0xff
			v422 := (v396 >> 7)
			v423 := v422 & 0x1
			var v424 uint64
			if v423 != 0 {
				v424 = 0x1b
			} else {
				v424 = 0x0
			}
			v425 := (v421 ^ v424)
			v426 := (v425 ^ v396)
			v427 := (v420 ^ v426)
			v428 := (v427 ^ v401)
			v429 := v428
			v430 := (v429 << 16) & 0xffffffff
			v431 := (v419 | v430)
			v432 := (v385 ^ v390)
			v433 := (v432 ^ v425)
			v434 := (v401 << 1) & 0xff
			v435 := (v401 >> 7)
			v436 := v435 & 0x1
			var v437 uint64
			if v436 != 0 {
				v437 = 0x1b
			} else {
				v437 = 0x0
			}
			v438 := (v434 ^ v437)
			v439 := (v438 ^ v401)
			v440 := (v433 ^ v439)
			v441 := v440
			v442 := (v441 << 8) & 0xffffffff
			v443 := (v431 | v442)
			v444 := (v408 ^ v385)
			v445 := (v444 ^ v390)
			v446 := (v445 ^ v396)
			v447 := (v446 ^ v438)
			v448 := v447
			v449 := (v443 | v448)
			var v450 uint64
			if v24 != 0 {
				v450 = v403
			} else {
				v450 = v449
			}
			v451 := (v223 + 0x3) & 0x3f
			var v452 uint64
			if addr := uint64(v451); addr < uint64(len(m1)) {
				v452 = m1[addr] & 0xffffffff
			}
			v453 := (v450 ^ v452)
			v480 := (v477 + 0x1) & 0xffffff
			var v26 uint64
			if v24 != 0 {
				v26 = 0x5
			} else {
				v26 = 0x4
			}
			v34 := v26
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v42 := v41
			v49 := v48
			v103 := v50
			v104 := v103
			v112 := v28
			v113 := v112
			v121 := v120
			v128 := v127
			v226 := v225
			v227 := v226
			v301 := v300
			v302 := v301
			v378 := v377
			v379 := v378
			v454 := v453
			v455 := v454
			v461 := v456
			v466 := v462
			v471 := v467
			v476 := v472
			var v478 uint64
			if v38 == 0x5 {
				v478 = 1
			}
			v479 := v478
			var v481 uint64
			if v479 != 0 {
				v481 = v480
			} else {
				v481 = v477
			}
			v486 := v482
			v490 := v487
			v493 := v491
			v496 := v494
			v499 := v497
			v502 := v500
			v505 := v503
			v508 := v506
			v511 := v509
			v514 := v512
			v517 := v515
			v520 := v518
			v523 := v521
			v526 := v524
			v529 := v527
			v532 := v530
			v535 := v533
			n0 := v38
			n1 := v42
			n2 := v49
			n3 := v104
			n4 := v113
			n5 := v121
			n6 := v128
			n7 := v227
			n8 := v302
			n9 := v379
			n10 := v455
			n11 := v461
			n12 := v466
			n13 := v471
			n14 := v476
			n15 := v481
			n16 := v486
			n17 := v490
			n18 := v493
			n19 := v496
			n20 := v499
			n21 := v502
			n22 := v505
			n23 := v508
			n24 := v511
			n25 := v514
			n26 := v517
			n27 := v520
			n28 := v523
			n29 := v526
			n30 := v529
			n31 := v532
			n32 := v535
			v0 = n0
			v5 = n1
			v10 = n2
			v50 = n3
			v28 = n4
			v16 = n5
			v22 = n6
			v129 = n7
			v149 = n8
			v156 = n9
			v163 = n10
			v456 = n11
			v462 = n12
			v467 = n13
			v472 = n14
			v477 = n15
			v482 = n16
			v487 = n17
			v491 = n18
			v494 = n19
			v497 = n20
			v500 = n21
			v503 = n22
			v506 = n23
			v509 = n24
			v512 = n25
			v515 = n26
			v518 = n27
			v521 = n28
			v524 = n29
			v527 = n30
			v530 = n31
			v533 = n32
		case 0x5:
			var v30 uint64
			if v28 == 0x0 {
				v30 = 1
			}
			var v32 uint64
			if v30 != 0 {
				v32 = 0x6
			} else {
				v32 = 0x3
			}
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v40 := (v5 - 0x1) & 0x7
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v5
			}
			var v106 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v106 = m0[addr] & 0xffff
			}
			v108 := (v106 - 0x1) & 0xffff
			var v109 uint64
			if v28 != 0x0 {
				v109 = 1
			}
			v111 := (v28 - 0x1) & 0xffff
			v133 := (v108 - v28) & 0xffff
			v134 := (v133 << 2) & 0xffff
			v485 := (v482 + 0x1) & 0xffffff
			v489 := (v487 + 0x1) & 0xffffff
			v519 := (v518 + 0x1) & 0xffffff
			v522 := (v521 + 0x17) & 0xffffff
			v525 := (v524 + v16) & 0xffffff
			v539 := v134 & 0x3ff
			v540 := (v134 + 0x1) & 0xffff
			v541 := v540 & 0x3ff
			v543 := (v134 + 0x2) & 0xffff
			v544 := v543 & 0x3ff
			v546 := (v134 + 0x3) & 0xffff
			v547 := v546 & 0x3ff
			v33 := v32
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v42 := v41
			v49 := v48
			v103 := v50
			v104 := v103
			v110 := v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v28
			}
			v113 := v112
			v115 := v110
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v128 := v127
			v226 := v129
			v227 := v226
			v301 := v149
			v302 := v301
			v378 := v156
			v379 := v378
			v454 := v163
			v455 := v454
			v461 := v456
			v466 := v462
			var v468 uint64
			if v38 == 0x3 {
				v468 = 1
			}
			v471 := v467
			v476 := v472
			v481 := v477
			var v483 uint64
			if v38 == 0x6 {
				v483 = 1
			}
			v484 := v483
			var v486 uint64
			if v484 != 0 {
				v486 = v485
			} else {
				v486 = v482
			}
			v488 := v468
			var v490 uint64
			if v488 != 0 {
				v490 = v489
			} else {
				v490 = v487
			}
			v493 := v491
			v496 := v494
			v499 := v497
			v502 := v500
			v505 := v503
			v508 := v506
			v511 := v509
			v514 := v512
			v517 := v515
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			v529 := v527
			v532 := v530
			v535 := v533
			if addr := uint64(v539); addr < uint64(len(m4)) {
				m4[addr] = v129
			}
			if addr := uint64(v541); addr < uint64(len(m4)) {
				m4[addr] = v149
			}
			if addr := uint64(v544); addr < uint64(len(m4)) {
				m4[addr] = v156
			}
			if addr := uint64(v547); addr < uint64(len(m4)) {
				m4[addr] = v163
			}
			n0 := v38
			n1 := v42
			n2 := v49
			n3 := v104
			n4 := v113
			n5 := v121
			n6 := v128
			n7 := v227
			n8 := v302
			n9 := v379
			n10 := v455
			n11 := v461
			n12 := v466
			n13 := v471
			n14 := v476
			n15 := v481
			n16 := v486
			n17 := v490
			n18 := v493
			n19 := v496
			n20 := v499
			n21 := v502
			n22 := v505
			n23 := v508
			n24 := v511
			n25 := v514
			n26 := v517
			n27 := v520
			n28 := v523
			n29 := v526
			n30 := v529
			n31 := v532
			n32 := v535
			v0 = n0
			v5 = n1
			v10 = n2
			v50 = n3
			v28 = n4
			v16 = n5
			v22 = n6
			v129 = n7
			v149 = n8
			v156 = n9
			v163 = n10
			v456 = n11
			v462 = n12
			v467 = n13
			v472 = n14
			v477 = n15
			v482 = n16
			v487 = n17
			v491 = n18
			v494 = n19
			v497 = n20
			v500 = n21
			v503 = n22
			v506 = n23
			v509 = n24
			v512 = n25
			v515 = n26
			v518 = n27
			v521 = n28
			v524 = n29
			v527 = n30
			v530 = n31
			v533 = n32
		case 0x6:
			break loop
		default:
			var v6 uint64
			if v5 == 0x0 {
				v6 = 1
			}
			var v12 uint64
			if v10 == 0x0 {
				v12 = 1
			}
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v24 uint64
			if v22 == 0x0 {
				v24 = 1
			}
			var v30 uint64
			if v28 == 0x0 {
				v30 = 1
			}
			var v32 uint64
			if v30 != 0 {
				v32 = 0x6
			} else {
				v32 = 0x3
			}
			var v39 uint64
			if v5 != 0x0 {
				v39 = 1
			}
			v40 := (v5 - 0x1) & 0x7
			var v41 uint64
			if v39 != 0 {
				v41 = v40
			} else {
				v41 = v5
			}
			v52 := (0x3 - v5) & 0x3f
			var v53 uint64
			if v52 == 0x3 {
				v53 = 1
			}
			v55 := (v52 + 0x1) & 0x3f
			var v56 uint64
			if addr := uint64(v55); addr < uint64(len(m0)) {
				v56 = m0[addr] & 0xffffffff
			}
			v58 := (0x2b - v10) & 0x3f
			v60 := (v58 - 0x4) & 0x3f
			var v61 uint64
			if addr := uint64(v60); addr < uint64(len(m1)) {
				v61 = m1[addr] & 0xffffffff
			}
			v62 := v58 & 0x3
			var v64 uint64
			if v62 == 0x0 {
				v64 = 1
			}
			v66 := (v50 << 8) & 0xffffffff
			v68 := (v50 >> 24)
			v69 := (v66 | v68)
			v70 := (v69 >> 24)
			v72 := v70 & 0xff
			var v73 uint64
			if addr := uint64(v72); addr < uint64(len(m2)) {
				v73 = m2[addr] & 0xff
			}
			v75 := v73
			v76 := (v75 << 24) & 0xffffffff
			v78 := (v69 >> 16)
			v79 := v78 & 0xff
			var v80 uint64
			if addr := uint64(v79); addr < uint64(len(m2)) {
				v80 = m2[addr] & 0xff
			}
			v81 := v80
			v82 := (v81 << 16) & 0xffffffff
			v83 := (v76 | v82)
			v84 := (v69 >> 8)
			v85 := v84 & 0xff
			var v86 uint64
			if addr := uint64(v85); addr < uint64(len(m2)) {
				v86 = m2[addr] & 0xff
			}
			v87 := v86
			v88 := (v87 << 8) & 0xffffffff
			v89 := (v83 | v88)
			v90 := v69 & 0xff
			var v91 uint64
			if addr := uint64(v90); addr < uint64(len(m2)) {
				v91 = m2[addr] & 0xff
			}
			v92 := v91
			v93 := (v89 | v92)
			v95 := (v58 >> 2)
			v96 := (v95 - 0x1) & 0x3f
			v98 := v96 & 0xf
			var v99 uint64
			if addr := uint64(v98); addr < uint64(len(m3)) {
				v99 = m3[addr] & 0xffffffff
			}
			v100 := (v93 ^ v99)
			var v101 uint64
			if v64 != 0 {
				v101 = v100
			} else {
				v101 = v50
			}
			v102 := (v61 ^ v101)
			var v106 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v106 = m0[addr] & 0xffff
			}
			v108 := (v106 - 0x1) & 0xffff
			var v109 uint64
			if v28 != 0x0 {
				v109 = 1
			}
			v111 := (v28 - 0x1) & 0xffff
			v130 := (0x17 - v16) & 0x1f
			var v131 uint64
			if v130 == 0x0 {
				v131 = 1
			}
			v133 := (v108 - v28) & 0xffff
			v134 := (v133 << 2) & 0xffff
			v135 := v130
			v136 := (v134 + v135) & 0xffff
			v138 := (v136 + 0x5) & 0xffff
			v140 := v138 & 0x3ff
			var v141 uint64
			if addr := uint64(v140); addr < uint64(len(m0)) {
				v141 = m0[addr] & 0xffffffff
			}
			var v142 uint64
			if addr := uint64(v130); addr < uint64(len(m1)) {
				v142 = m1[addr] & 0xffffffff
			}
			v143 := (v141 ^ v142)
			v144 := (v129 >> 24)
			v145 := v144 & 0xff
			var v146 uint64
			if addr := uint64(v145); addr < uint64(len(m2)) {
				v146 = m2[addr] & 0xff
			}
			v147 := v146
			v148 := (v147 << 24) & 0xffffffff
			v150 := (v149 >> 16)
			v151 := v150 & 0xff
			var v152 uint64
			if addr := uint64(v151); addr < uint64(len(m2)) {
				v152 = m2[addr] & 0xff
			}
			v153 := v152
			v154 := (v153 << 16) & 0xffffffff
			v155 := (v148 | v154)
			v157 := (v156 >> 8)
			v158 := v157 & 0xff
			var v159 uint64
			if addr := uint64(v158); addr < uint64(len(m2)) {
				v159 = m2[addr] & 0xff
			}
			v160 := v159
			v161 := (v160 << 8) & 0xffffffff
			v162 := (v155 | v161)
			v164 := v163 & 0xff
			var v165 uint64
			if addr := uint64(v164); addr < uint64(len(m2)) {
				v165 = m2[addr] & 0xff
			}
			v166 := v165
			v167 := (v162 | v166)
			v169 := (v146 << 1) & 0xff
			v171 := (v146 >> 7)
			v173 := v171 & 0x1
			var v176 uint64
			if v173 != 0 {
				v176 = 0x1b
			} else {
				v176 = 0x0
			}
			v177 := (v169 ^ v176)
			v178 := (v152 << 1) & 0xff
			v179 := (v152 >> 7)
			v180 := v179 & 0x1
			var v181 uint64
			if v180 != 0 {
				v181 = 0x1b
			} else {
				v181 = 0x0
			}
			v182 := (v178 ^ v181)
			v183 := (v182 ^ v152)
			v184 := (v177 ^ v183)
			v185 := (v184 ^ v159)
			v186 := (v185 ^ v165)
			v187 := v186
			v188 := (v187 << 24) & 0xffffffff
			v189 := (v146 ^ v182)
			v190 := (v159 << 1) & 0xff
			v191 := (v159 >> 7)
			v192 := v191 & 0x1
			var v193 uint64
			if v192 != 0 {
				v193 = 0x1b
			} else {
				v193 = 0x0
			}
			v194 := (v190 ^ v193)
			v195 := (v194 ^ v159)
			v196 := (v189 ^ v195)
			v197 := (v196 ^ v165)
			v198 := v197
			v199 := (v198 << 16) & 0xffffffff
			v200 := (v188 | v199)
			v201 := (v146 ^ v152)
			v202 := (v201 ^ v194)
			v203 := (v165 << 1) & 0xff
			v204 := (v165 >> 7)
			v205 := v204 & 0x1
			var v206 uint64
			if v205 != 0 {
				v206 = 0x1b
			} else {
				v206 = 0x0
			}
			v207 := (v203 ^ v206)
			v208 := (v207 ^ v165)
			v209 := (v202 ^ v208)
			v210 := v209
			v211 := (v210 << 8) & 0xffffffff
			v212 := (v200 | v211)
			v213 := (v177 ^ v146)
			v214 := (v213 ^ v152)
			v215 := (v214 ^ v159)
			v216 := (v215 ^ v207)
			v217 := v216
			v218 := (v212 | v217)
			var v219 uint64
			if v24 != 0 {
				v219 = v167
			} else {
				v219 = v218
			}
			v221 := v22
			v222 := (v221 << 2) & 0x3f
			v223 := (0x28 - v222) & 0x3f
			var v224 uint64
			if addr := uint64(v223); addr < uint64(len(m1)) {
				v224 = m1[addr] & 0xffffffff
			}
			v225 := (v219 ^ v224)
			var v228 uint64
			if v130 == 0x1 {
				v228 = 1
			}
			v230 := (v149 >> 24)
			v231 := v230 & 0xff
			var v232 uint64
			if addr := uint64(v231); addr < uint64(len(m2)) {
				v232 = m2[addr] & 0xff
			}
			v233 := v232
			v234 := (v233 << 24) & 0xffffffff
			v235 := (v156 >> 16)
			v236 := v235 & 0xff
			var v237 uint64
			if addr := uint64(v236); addr < uint64(len(m2)) {
				v237 = m2[addr] & 0xff
			}
			v238 := v237
			v239 := (v238 << 16) & 0xffffffff
			v240 := (v234 | v239)
			v241 := (v163 >> 8)
			v242 := v241 & 0xff
			var v243 uint64
			if addr := uint64(v242); addr < uint64(len(m2)) {
				v243 = m2[addr] & 0xff
			}
			v244 := v243
			v245 := (v244 << 8) & 0xffffffff
			v246 := (v240 | v245)
			v247 := v129 & 0xff
			var v248 uint64
			if addr := uint64(v247); addr < uint64(len(m2)) {
				v248 = m2[addr] & 0xff
			}
			v249 := v248
			v250 := (v246 | v249)
			v251 := (v232 << 1) & 0xff
			v252 := (v232 >> 7)
			v253 := v252 & 0x1
			var v254 uint64
			if v253 != 0 {
				v254 = 0x1b
			} else {
				v254 = 0x0
			}
			v255 := (v251 ^ v254)
			v256 := (v237 << 1) & 0xff
			v257 := (v237 >> 7)
			v258 := v257 & 0x1
			var v259 uint64
			if v258 != 0 {
				v259 = 0x1b
			} else {
				v259 = 0x0
			}
			v260 := (v256 ^ v259)
			v261 := (v260 ^ v237)
			v262 := (v255 ^ v261)
			v263 := (v262 ^ v243)
			v264 := (v263 ^ v248)
			v265 := v264
			v266 := (v265 << 24) & 0xffffffff
			v267 := (v232 ^ v260)
			v268 := (v243 << 1) & 0xff
			v269 := (v243 >> 7)
			v270 := v269 & 0x1
			var v271 uint64
			if v270 != 0 {
				v271 = 0x1b
			} else {
				v271 = 0x0
			}
			v272 := (v268 ^ v271)
			v273 := (v272 ^ v243)
			v274 := (v267 ^ v273)
			v275 := (v274 ^ v248)
			v276 := v275
			v277 := (v276 << 16) & 0xffffffff
			v278 := (v266 | v277)
			v279 := (v232 ^ v237)
			v280 := (v279 ^ v272)
			v281 := (v248 << 1) & 0xff
			v282 := (v248 >> 7)
			v283 := v282 & 0x1
			var v284 uint64
			if v283 != 0 {
				v284 = 0x1b
			} else {
				v284 = 0x0
			}
			v285 := (v281 ^ v284)
			v286 := (v285 ^ v248)
			v287 := (v280 ^ v286)
			v288 := v287
			v289 := (v288 << 8) & 0xffffffff
			v290 := (v278 | v289)
			v291 := (v255 ^ v232)
			v292 := (v291 ^ v237)
			v293 := (v292 ^ v243)
			v294 := (v293 ^ v285)
			v295 := v294
			v296 := (v290 | v295)
			var v297 uint64
			if v24 != 0 {
				v297 = v250
			} else {
				v297 = v296
			}
			v298 := (v223 + 0x1) & 0x3f
			var v299 uint64
			if addr := uint64(v298); addr < uint64(len(m1)) {
				v299 = m1[addr] & 0xffffffff
			}
			v300 := (v297 ^ v299)
			var v304 uint64
			if v130 == 0x2 {
				v304 = 1
			}
			v306 := (v156 >> 24)
			v307 := v306 & 0xff
			var v308 uint64
			if addr := uint64(v307); addr < uint64(len(m2)) {
				v308 = m2[addr] & 0xff
			}
			v309 := v308
			v310 := (v309 << 24) & 0xffffffff
			v311 := (v163 >> 16)
			v312 := v311 & 0xff
			var v313 uint64
			if addr := uint64(v312); addr < uint64(len(m2)) {
				v313 = m2[addr] & 0xff
			}
			v314 := v313
			v315 := (v314 << 16) & 0xffffffff
			v316 := (v310 | v315)
			v317 := (v129 >> 8)
			v318 := v317 & 0xff
			var v319 uint64
			if addr := uint64(v318); addr < uint64(len(m2)) {
				v319 = m2[addr] & 0xff
			}
			v320 := v319
			v321 := (v320 << 8) & 0xffffffff
			v322 := (v316 | v321)
			v323 := v149 & 0xff
			var v324 uint64
			if addr := uint64(v323); addr < uint64(len(m2)) {
				v324 = m2[addr] & 0xff
			}
			v325 := v324
			v326 := (v322 | v325)
			v327 := (v308 << 1) & 0xff
			v328 := (v308 >> 7)
			v329 := v328 & 0x1
			var v330 uint64
			if v329 != 0 {
				v330 = 0x1b
			} else {
				v330 = 0x0
			}
			v331 := (v327 ^ v330)
			v332 := (v313 << 1) & 0xff
			v333 := (v313 >> 7)
			v334 := v333 & 0x1
			var v335 uint64
			if v334 != 0 {
				v335 = 0x1b
			} else {
				v335 = 0x0
			}
			v336 := (v332 ^ v335)
			v337 := (v336 ^ v313)
			v338 := (v331 ^ v337)
			v339 := (v338 ^ v319)
			v340 := (v339 ^ v324)
			v341 := v340
			v342 := (v341 << 24) & 0xffffffff
			v343 := (v308 ^ v336)
			v344 := (v319 << 1) & 0xff
			v345 := (v319 >> 7)
			v346 := v345 & 0x1
			var v347 uint64
			if v346 != 0 {
				v347 = 0x1b
			} else {
				v347 = 0x0
			}
			v348 := (v344 ^ v347)
			v349 := (v348 ^ v319)
			v350 := (v343 ^ v349)
			v351 := (v350 ^ v324)
			v352 := v351
			v353 := (v352 << 16) & 0xffffffff
			v354 := (v342 | v353)
			v355 := (v308 ^ v313)
			v356 := (v355 ^ v348)
			v357 := (v324 << 1) & 0xff
			v358 := (v324 >> 7)
			v359 := v358 & 0x1
			var v360 uint64
			if v359 != 0 {
				v360 = 0x1b
			} else {
				v360 = 0x0
			}
			v361 := (v357 ^ v360)
			v362 := (v361 ^ v324)
			v363 := (v356 ^ v362)
			v364 := v363
			v365 := (v364 << 8) & 0xffffffff
			v366 := (v354 | v365)
			v367 := (v331 ^ v308)
			v368 := (v367 ^ v313)
			v369 := (v368 ^ v319)
			v370 := (v369 ^ v361)
			v371 := v370
			v372 := (v366 | v371)
			var v373 uint64
			if v24 != 0 {
				v373 = v326
			} else {
				v373 = v372
			}
			v375 := (v223 + 0x2) & 0x3f
			var v376 uint64
			if addr := uint64(v375); addr < uint64(len(m1)) {
				v376 = m1[addr] & 0xffffffff
			}
			v377 := (v373 ^ v376)
			var v381 uint64
			if v130 == 0x3 {
				v381 = 1
			}
			v383 := (v163 >> 24)
			v384 := v383 & 0xff
			var v385 uint64
			if addr := uint64(v384); addr < uint64(len(m2)) {
				v385 = m2[addr] & 0xff
			}
			v386 := v385
			v387 := (v386 << 24) & 0xffffffff
			v388 := (v129 >> 16)
			v389 := v388 & 0xff
			var v390 uint64
			if addr := uint64(v389); addr < uint64(len(m2)) {
				v390 = m2[addr] & 0xff
			}
			v391 := v390
			v392 := (v391 << 16) & 0xffffffff
			v393 := (v387 | v392)
			v394 := (v149 >> 8)
			v395 := v394 & 0xff
			var v396 uint64
			if addr := uint64(v395); addr < uint64(len(m2)) {
				v396 = m2[addr] & 0xff
			}
			v397 := v396
			v398 := (v397 << 8) & 0xffffffff
			v399 := (v393 | v398)
			v400 := v156 & 0xff
			var v401 uint64
			if addr := uint64(v400); addr < uint64(len(m2)) {
				v401 = m2[addr] & 0xff
			}
			v402 := v401
			v403 := (v399 | v402)
			v404 := (v385 << 1) & 0xff
			v405 := (v385 >> 7)
			v406 := v405 & 0x1
			var v407 uint64
			if v406 != 0 {
				v407 = 0x1b
			} else {
				v407 = 0x0
			}
			v408 := (v404 ^ v407)
			v409 := (v390 << 1) & 0xff
			v410 := (v390 >> 7)
			v411 := v410 & 0x1
			var v412 uint64
			if v411 != 0 {
				v412 = 0x1b
			} else {
				v412 = 0x0
			}
			v413 := (v409 ^ v412)
			v414 := (v413 ^ v390)
			v415 := (v408 ^ v414)
			v416 := (v415 ^ v396)
			v417 := (v416 ^ v401)
			v418 := v417
			v419 := (v418 << 24) & 0xffffffff
			v420 := (v385 ^ v413)
			v421 := (v396 << 1) & 0xff
			v422 := (v396 >> 7)
			v423 := v422 & 0x1
			var v424 uint64
			if v423 != 0 {
				v424 = 0x1b
			} else {
				v424 = 0x0
			}
			v425 := (v421 ^ v424)
			v426 := (v425 ^ v396)
			v427 := (v420 ^ v426)
			v428 := (v427 ^ v401)
			v429 := v428
			v430 := (v429 << 16) & 0xffffffff
			v431 := (v419 | v430)
			v432 := (v385 ^ v390)
			v433 := (v432 ^ v425)
			v434 := (v401 << 1) & 0xff
			v435 := (v401 >> 7)
			v436 := v435 & 0x1
			var v437 uint64
			if v436 != 0 {
				v437 = 0x1b
			} else {
				v437 = 0x0
			}
			v438 := (v434 ^ v437)
			v439 := (v438 ^ v401)
			v440 := (v433 ^ v439)
			v441 := v440
			v442 := (v441 << 8) & 0xffffffff
			v443 := (v431 | v442)
			v444 := (v408 ^ v385)
			v445 := (v444 ^ v390)
			v446 := (v445 ^ v396)
			v447 := (v446 ^ v438)
			v448 := v447
			v449 := (v443 | v448)
			var v450 uint64
			if v24 != 0 {
				v450 = v403
			} else {
				v450 = v449
			}
			v451 := (v223 + 0x3) & 0x3f
			var v452 uint64
			if addr := uint64(v451); addr < uint64(len(m1)) {
				v452 = m1[addr] & 0xffffffff
			}
			v453 := (v450 ^ v452)
			v460 := (v456 + 0x1) & 0xffffff
			v465 := (v462 + 0x1) & 0xffffff
			v470 := (v467 + 0x1) & 0xffffff
			v475 := (v472 + 0x1) & 0xffffff
			v480 := (v477 + 0x1) & 0xffffff
			v485 := (v482 + 0x1) & 0xffffff
			v489 := (v487 + 0x1) & 0xffffff
			v492 := (v491 + 0x1) & 0xffffff
			v495 := (v494 + 0x3) & 0xffffff
			v498 := (v497 + v5) & 0xffffff
			v501 := (v500 + 0x1) & 0xffffff
			v504 := (v503 + 0x27) & 0xffffff
			v507 := (v506 + v10) & 0xffffff
			v510 := (v509 + 0x1) & 0xffffff
			v513 := (v512 + v108) & 0xffffff
			v516 := (v515 + v28) & 0xffffff
			v519 := (v518 + 0x1) & 0xffffff
			v522 := (v521 + 0x17) & 0xffffff
			v525 := (v524 + v16) & 0xffffff
			v528 := (v527 + 0x1) & 0xffffff
			v531 := (v530 + 0x9) & 0xffffff
			v534 := (v533 + v22) & 0xffffff
			v539 := v134 & 0x3ff
			v540 := (v134 + 0x1) & 0xffff
			v541 := v540 & 0x3ff
			v543 := (v134 + 0x2) & 0xffff
			v544 := v543 & 0x3ff
			v546 := (v134 + 0x3) & 0xffff
			v547 := v546 & 0x3ff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v8 uint64
			if v6 != 0 {
				v8 = 0x2
			} else {
				v8 = v0
			}
			var v9 uint64
			if v0 == 0x2 {
				v9 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x3
			} else {
				v14 = v0
			}
			var v15 uint64
			if v0 == 0x3 {
				v15 = 1
			}
			var v20 uint64
			if v18 != 0 {
				v20 = 0x4
			} else {
				v20 = v0
			}
			var v21 uint64
			if v0 == 0x4 {
				v21 = 1
			}
			var v26 uint64
			if v24 != 0 {
				v26 = 0x5
			} else {
				v26 = v0
			}
			var v27 uint64
			if v0 == 0x5 {
				v27 = 1
			}
			var v33 uint64
			if v27 != 0 {
				v33 = v32
			} else {
				v33 = v0
			}
			var v34 uint64
			if v21 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			var v35 uint64
			if v15 != 0 {
				v35 = v20
			} else {
				v35 = v34
			}
			var v36 uint64
			if v9 != 0 {
				v36 = v14
			} else {
				v36 = v35
			}
			var v37 uint64
			if v4 != 0 {
				v37 = v8
			} else {
				v37 = v36
			}
			var v38 uint64
			if v2 != 0 {
				v38 = 0x1
			} else {
				v38 = v37
			}
			var v42 uint64
			if v2 != 0 {
				v42 = 0x3
			} else {
				v42 = v41
			}
			v43 := v4 & v6
			var v49 uint64
			if v43 != 0 {
				v49 = 0x27
			} else {
				v49 = v48
			}
			v54 := v4 & v53
			var v103 uint64
			if v9 != 0 {
				v103 = v102
			} else {
				v103 = v50
			}
			var v104 uint64
			if v54 != 0 {
				v104 = v56
			} else {
				v104 = v103
			}
			v110 := v27 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v28
			}
			var v113 uint64
			if v2 != 0 {
				v113 = v108
			} else {
				v113 = v112
			}
			v114 := v9 & v12
			v115 := (v114 | v110)
			var v121 uint64
			if v115 != 0 {
				v121 = 0x17
			} else {
				v121 = v120
			}
			v122 := v15 & v18
			var v128 uint64
			if v122 != 0 {
				v128 = 0x9
			} else {
				v128 = v127
			}
			v132 := v15 & v131
			var v226 uint64
			if v21 != 0 {
				v226 = v225
			} else {
				v226 = v129
			}
			var v227 uint64
			if v132 != 0 {
				v227 = v143
			} else {
				v227 = v226
			}
			v229 := v15 & v228
			var v301 uint64
			if v21 != 0 {
				v301 = v300
			} else {
				v301 = v149
			}
			var v302 uint64
			if v229 != 0 {
				v302 = v143
			} else {
				v302 = v301
			}
			v305 := v15 & v304
			var v378 uint64
			if v21 != 0 {
				v378 = v377
			} else {
				v378 = v156
			}
			var v379 uint64
			if v305 != 0 {
				v379 = v143
			} else {
				v379 = v378
			}
			v382 := v15 & v381
			var v454 uint64
			if v21 != 0 {
				v454 = v453
			} else {
				v454 = v163
			}
			var v455 uint64
			if v382 != 0 {
				v455 = v143
			} else {
				v455 = v454
			}
			var v457 uint64
			if v38 == 0x1 {
				v457 = 1
			}
			v458 := v2 & v457
			var v461 uint64
			if v458 != 0 {
				v461 = v460
			} else {
				v461 = v456
			}
			var v463 uint64
			if v38 == 0x2 {
				v463 = 1
			}
			v464 := v4 & v463
			var v466 uint64
			if v464 != 0 {
				v466 = v465
			} else {
				v466 = v462
			}
			var v468 uint64
			if v38 == 0x3 {
				v468 = 1
			}
			v469 := v9 & v468
			var v471 uint64
			if v469 != 0 {
				v471 = v470
			} else {
				v471 = v467
			}
			var v473 uint64
			if v38 == 0x4 {
				v473 = 1
			}
			v474 := v15 & v473
			var v476 uint64
			if v474 != 0 {
				v476 = v475
			} else {
				v476 = v472
			}
			var v478 uint64
			if v38 == 0x5 {
				v478 = 1
			}
			v479 := v21 & v478
			var v481 uint64
			if v479 != 0 {
				v481 = v480
			} else {
				v481 = v477
			}
			var v483 uint64
			if v38 == 0x6 {
				v483 = 1
			}
			v484 := v27 & v483
			var v486 uint64
			if v484 != 0 {
				v486 = v485
			} else {
				v486 = v482
			}
			v488 := v27 & v468
			var v490 uint64
			if v488 != 0 {
				v490 = v489
			} else {
				v490 = v487
			}
			var v493 uint64
			if v2 != 0 {
				v493 = v492
			} else {
				v493 = v491
			}
			var v496 uint64
			if v2 != 0 {
				v496 = v495
			} else {
				v496 = v494
			}
			var v499 uint64
			if v2 != 0 {
				v499 = v498
			} else {
				v499 = v497
			}
			var v502 uint64
			if v43 != 0 {
				v502 = v501
			} else {
				v502 = v500
			}
			var v505 uint64
			if v43 != 0 {
				v505 = v504
			} else {
				v505 = v503
			}
			var v508 uint64
			if v43 != 0 {
				v508 = v507
			} else {
				v508 = v506
			}
			var v511 uint64
			if v2 != 0 {
				v511 = v510
			} else {
				v511 = v509
			}
			var v514 uint64
			if v2 != 0 {
				v514 = v513
			} else {
				v514 = v512
			}
			var v517 uint64
			if v2 != 0 {
				v517 = v516
			} else {
				v517 = v515
			}
			var v520 uint64
			if v115 != 0 {
				v520 = v519
			} else {
				v520 = v518
			}
			var v523 uint64
			if v115 != 0 {
				v523 = v522
			} else {
				v523 = v521
			}
			var v526 uint64
			if v115 != 0 {
				v526 = v525
			} else {
				v526 = v524
			}
			var v529 uint64
			if v122 != 0 {
				v529 = v528
			} else {
				v529 = v527
			}
			var v532 uint64
			if v122 != 0 {
				v532 = v531
			} else {
				v532 = v530
			}
			var v535 uint64
			if v122 != 0 {
				v535 = v534
			} else {
				v535 = v533
			}
			v536 := (v4 | v9)
			var v537 uint64
			if v4 != 0 {
				v537 = v52
			} else {
				v537 = v58
			}
			var v538 uint64
			if v4 != 0 {
				v538 = v56
			} else {
				v538 = v102
			}
			var v548 uint64
			if v0 == 0x6 {
				v548 = 1
			}
			if v548 != 0 {
				break loop
			}
			if v536 != 0 {
				if addr := uint64(v537); addr < uint64(len(m1)) {
					m1[addr] = v538
				}
			}
			if v27 != 0 {
				if addr := uint64(v539); addr < uint64(len(m4)) {
					m4[addr] = v129
				}
			}
			if v27 != 0 {
				if addr := uint64(v541); addr < uint64(len(m4)) {
					m4[addr] = v149
				}
			}
			if v27 != 0 {
				if addr := uint64(v544); addr < uint64(len(m4)) {
					m4[addr] = v156
				}
			}
			if v27 != 0 {
				if addr := uint64(v547); addr < uint64(len(m4)) {
					m4[addr] = v163
				}
			}
			n0 := v38
			n1 := v42
			n2 := v49
			n3 := v104
			n4 := v113
			n5 := v121
			n6 := v128
			n7 := v227
			n8 := v302
			n9 := v379
			n10 := v455
			n11 := v461
			n12 := v466
			n13 := v471
			n14 := v476
			n15 := v481
			n16 := v486
			n17 := v490
			n18 := v493
			n19 := v496
			n20 := v499
			n21 := v502
			n22 := v505
			n23 := v508
			n24 := v511
			n25 := v514
			n26 := v517
			n27 := v520
			n28 := v523
			n29 := v526
			n30 := v529
			n31 := v532
			n32 := v535
			v0 = n0
			v5 = n1
			v10 = n2
			v50 = n3
			v28 = n4
			v16 = n5
			v22 = n6
			v129 = n7
			v149 = n8
			v156 = n9
			v163 = n10
			v456 = n11
			v462 = n12
			v467 = n13
			v472 = n14
			v477 = n15
			v482 = n16
			v487 = n17
			v491 = n18
			v494 = n19
			v497 = n20
			v500 = n21
			v503 = n22
			v506 = n23
			v509 = n24
			v512 = n25
			v515 = n26
			v518 = n27
			v521 = n28
			v524 = n29
			v527 = n30
			v530 = n31
			v533 = n32
		}
	}
	vals[0] = v0
	vals[5] = v5
	vals[10] = v10
	vals[50] = v50
	vals[28] = v28
	vals[16] = v16
	vals[22] = v22
	vals[129] = v129
	vals[149] = v149
	vals[156] = v156
	vals[163] = v163
	vals[456] = v456
	vals[462] = v462
	vals[467] = v467
	vals[472] = v472
	vals[477] = v477
	vals[482] = v482
	vals[487] = v487
	vals[491] = v491
	vals[494] = v494
	vals[497] = v497
	vals[500] = v500
	vals[503] = v503
	vals[506] = v506
	vals[509] = v509
	vals[512] = v512
	vals[515] = v515
	vals[518] = v518
	vals[521] = v521
	vals[524] = v524
	vals[527] = v527
	vals[530] = v530
	vals[533] = v533
	var v6 uint64
	if v5 == 0x0 {
		v6 = 1
	}
	vals[6] = v6
	var v12 uint64
	if v10 == 0x0 {
		v12 = 1
	}
	vals[12] = v12
	var v18 uint64
	if v16 == 0x0 {
		v18 = 1
	}
	vals[18] = v18
	var v24 uint64
	if v22 == 0x0 {
		v24 = 1
	}
	vals[24] = v24
	var v30 uint64
	if v28 == 0x0 {
		v30 = 1
	}
	vals[30] = v30
	var v32 uint64
	if v30 != 0 {
		v32 = 0x6
	} else {
		v32 = 0x3
	}
	vals[32] = v32
	var v39 uint64
	if v5 != 0x0 {
		v39 = 1
	}
	vals[39] = v39
	v40 := (v5 - 0x1) & 0x7
	vals[40] = v40
	var v41 uint64
	if v39 != 0 {
		v41 = v40
	} else {
		v41 = v5
	}
	vals[41] = v41
	var v45 uint64
	if v10 != 0x0 {
		v45 = 1
	}
	vals[45] = v45
	v47 := (v10 - 0x1) & 0x3f
	vals[47] = v47
	var v48 uint64
	if v45 != 0 {
		v48 = v47
	} else {
		v48 = v10
	}
	vals[48] = v48
	v52 := (0x3 - v5) & 0x3f
	vals[52] = v52
	var v53 uint64
	if v52 == 0x3 {
		v53 = 1
	}
	vals[53] = v53
	v55 := (v52 + 0x1) & 0x3f
	vals[55] = v55
	var v56 uint64
	if addr := uint64(v55); addr < uint64(len(m0)) {
		v56 = m0[addr] & 0xffffffff
	}
	vals[56] = v56
	v58 := (0x2b - v10) & 0x3f
	vals[58] = v58
	v60 := (v58 - 0x4) & 0x3f
	vals[60] = v60
	var v61 uint64
	if addr := uint64(v60); addr < uint64(len(m1)) {
		v61 = m1[addr] & 0xffffffff
	}
	vals[61] = v61
	v62 := v58 & 0x3
	vals[62] = v62
	var v64 uint64
	if v62 == 0x0 {
		v64 = 1
	}
	vals[64] = v64
	v66 := (v50 << 8) & 0xffffffff
	vals[66] = v66
	v68 := (v50 >> 24)
	vals[68] = v68
	v69 := (v66 | v68)
	vals[69] = v69
	v70 := (v69 >> 24)
	vals[70] = v70
	v72 := v70 & 0xff
	vals[72] = v72
	var v73 uint64
	if addr := uint64(v72); addr < uint64(len(m2)) {
		v73 = m2[addr] & 0xff
	}
	vals[73] = v73
	v75 := v73
	vals[75] = v75
	v76 := (v75 << 24) & 0xffffffff
	vals[76] = v76
	v78 := (v69 >> 16)
	vals[78] = v78
	v79 := v78 & 0xff
	vals[79] = v79
	var v80 uint64
	if addr := uint64(v79); addr < uint64(len(m2)) {
		v80 = m2[addr] & 0xff
	}
	vals[80] = v80
	v81 := v80
	vals[81] = v81
	v82 := (v81 << 16) & 0xffffffff
	vals[82] = v82
	v83 := (v76 | v82)
	vals[83] = v83
	v84 := (v69 >> 8)
	vals[84] = v84
	v85 := v84 & 0xff
	vals[85] = v85
	var v86 uint64
	if addr := uint64(v85); addr < uint64(len(m2)) {
		v86 = m2[addr] & 0xff
	}
	vals[86] = v86
	v87 := v86
	vals[87] = v87
	v88 := (v87 << 8) & 0xffffffff
	vals[88] = v88
	v89 := (v83 | v88)
	vals[89] = v89
	v90 := v69 & 0xff
	vals[90] = v90
	var v91 uint64
	if addr := uint64(v90); addr < uint64(len(m2)) {
		v91 = m2[addr] & 0xff
	}
	vals[91] = v91
	v92 := v91
	vals[92] = v92
	v93 := (v89 | v92)
	vals[93] = v93
	v95 := (v58 >> 2)
	vals[95] = v95
	v96 := (v95 - 0x1) & 0x3f
	vals[96] = v96
	v98 := v96 & 0xf
	vals[98] = v98
	var v99 uint64
	if addr := uint64(v98); addr < uint64(len(m3)) {
		v99 = m3[addr] & 0xffffffff
	}
	vals[99] = v99
	v100 := (v93 ^ v99)
	vals[100] = v100
	var v101 uint64
	if v64 != 0 {
		v101 = v100
	} else {
		v101 = v50
	}
	vals[101] = v101
	v102 := (v61 ^ v101)
	vals[102] = v102
	var v106 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v106 = m0[addr] & 0xffff
	}
	vals[106] = v106
	v108 := (v106 - 0x1) & 0xffff
	vals[108] = v108
	var v109 uint64
	if v28 != 0x0 {
		v109 = 1
	}
	vals[109] = v109
	v111 := (v28 - 0x1) & 0xffff
	vals[111] = v111
	var v117 uint64
	if v16 != 0x0 {
		v117 = 1
	}
	vals[117] = v117
	v119 := (v16 - 0x1) & 0x1f
	vals[119] = v119
	var v120 uint64
	if v117 != 0 {
		v120 = v119
	} else {
		v120 = v16
	}
	vals[120] = v120
	var v124 uint64
	if v22 != 0x0 {
		v124 = 1
	}
	vals[124] = v124
	v126 := (v22 - 0x1) & 0xf
	vals[126] = v126
	var v127 uint64
	if v124 != 0 {
		v127 = v126
	} else {
		v127 = v22
	}
	vals[127] = v127
	v130 := (0x17 - v16) & 0x1f
	vals[130] = v130
	var v131 uint64
	if v130 == 0x0 {
		v131 = 1
	}
	vals[131] = v131
	v133 := (v108 - v28) & 0xffff
	vals[133] = v133
	v134 := (v133 << 2) & 0xffff
	vals[134] = v134
	v135 := v130
	vals[135] = v135
	v136 := (v134 + v135) & 0xffff
	vals[136] = v136
	v138 := (v136 + 0x5) & 0xffff
	vals[138] = v138
	v140 := v138 & 0x3ff
	vals[140] = v140
	var v141 uint64
	if addr := uint64(v140); addr < uint64(len(m0)) {
		v141 = m0[addr] & 0xffffffff
	}
	vals[141] = v141
	var v142 uint64
	if addr := uint64(v130); addr < uint64(len(m1)) {
		v142 = m1[addr] & 0xffffffff
	}
	vals[142] = v142
	v143 := (v141 ^ v142)
	vals[143] = v143
	v144 := (v129 >> 24)
	vals[144] = v144
	v145 := v144 & 0xff
	vals[145] = v145
	var v146 uint64
	if addr := uint64(v145); addr < uint64(len(m2)) {
		v146 = m2[addr] & 0xff
	}
	vals[146] = v146
	v147 := v146
	vals[147] = v147
	v148 := (v147 << 24) & 0xffffffff
	vals[148] = v148
	v150 := (v149 >> 16)
	vals[150] = v150
	v151 := v150 & 0xff
	vals[151] = v151
	var v152 uint64
	if addr := uint64(v151); addr < uint64(len(m2)) {
		v152 = m2[addr] & 0xff
	}
	vals[152] = v152
	v153 := v152
	vals[153] = v153
	v154 := (v153 << 16) & 0xffffffff
	vals[154] = v154
	v155 := (v148 | v154)
	vals[155] = v155
	v157 := (v156 >> 8)
	vals[157] = v157
	v158 := v157 & 0xff
	vals[158] = v158
	var v159 uint64
	if addr := uint64(v158); addr < uint64(len(m2)) {
		v159 = m2[addr] & 0xff
	}
	vals[159] = v159
	v160 := v159
	vals[160] = v160
	v161 := (v160 << 8) & 0xffffffff
	vals[161] = v161
	v162 := (v155 | v161)
	vals[162] = v162
	v164 := v163 & 0xff
	vals[164] = v164
	var v165 uint64
	if addr := uint64(v164); addr < uint64(len(m2)) {
		v165 = m2[addr] & 0xff
	}
	vals[165] = v165
	v166 := v165
	vals[166] = v166
	v167 := (v162 | v166)
	vals[167] = v167
	v169 := (v146 << 1) & 0xff
	vals[169] = v169
	v171 := (v146 >> 7)
	vals[171] = v171
	v173 := v171 & 0x1
	vals[173] = v173
	var v176 uint64
	if v173 != 0 {
		v176 = 0x1b
	} else {
		v176 = 0x0
	}
	vals[176] = v176
	v177 := (v169 ^ v176)
	vals[177] = v177
	v178 := (v152 << 1) & 0xff
	vals[178] = v178
	v179 := (v152 >> 7)
	vals[179] = v179
	v180 := v179 & 0x1
	vals[180] = v180
	var v181 uint64
	if v180 != 0 {
		v181 = 0x1b
	} else {
		v181 = 0x0
	}
	vals[181] = v181
	v182 := (v178 ^ v181)
	vals[182] = v182
	v183 := (v182 ^ v152)
	vals[183] = v183
	v184 := (v177 ^ v183)
	vals[184] = v184
	v185 := (v184 ^ v159)
	vals[185] = v185
	v186 := (v185 ^ v165)
	vals[186] = v186
	v187 := v186
	vals[187] = v187
	v188 := (v187 << 24) & 0xffffffff
	vals[188] = v188
	v189 := (v146 ^ v182)
	vals[189] = v189
	v190 := (v159 << 1) & 0xff
	vals[190] = v190
	v191 := (v159 >> 7)
	vals[191] = v191
	v192 := v191 & 0x1
	vals[192] = v192
	var v193 uint64
	if v192 != 0 {
		v193 = 0x1b
	} else {
		v193 = 0x0
	}
	vals[193] = v193
	v194 := (v190 ^ v193)
	vals[194] = v194
	v195 := (v194 ^ v159)
	vals[195] = v195
	v196 := (v189 ^ v195)
	vals[196] = v196
	v197 := (v196 ^ v165)
	vals[197] = v197
	v198 := v197
	vals[198] = v198
	v199 := (v198 << 16) & 0xffffffff
	vals[199] = v199
	v200 := (v188 | v199)
	vals[200] = v200
	v201 := (v146 ^ v152)
	vals[201] = v201
	v202 := (v201 ^ v194)
	vals[202] = v202
	v203 := (v165 << 1) & 0xff
	vals[203] = v203
	v204 := (v165 >> 7)
	vals[204] = v204
	v205 := v204 & 0x1
	vals[205] = v205
	var v206 uint64
	if v205 != 0 {
		v206 = 0x1b
	} else {
		v206 = 0x0
	}
	vals[206] = v206
	v207 := (v203 ^ v206)
	vals[207] = v207
	v208 := (v207 ^ v165)
	vals[208] = v208
	v209 := (v202 ^ v208)
	vals[209] = v209
	v210 := v209
	vals[210] = v210
	v211 := (v210 << 8) & 0xffffffff
	vals[211] = v211
	v212 := (v200 | v211)
	vals[212] = v212
	v213 := (v177 ^ v146)
	vals[213] = v213
	v214 := (v213 ^ v152)
	vals[214] = v214
	v215 := (v214 ^ v159)
	vals[215] = v215
	v216 := (v215 ^ v207)
	vals[216] = v216
	v217 := v216
	vals[217] = v217
	v218 := (v212 | v217)
	vals[218] = v218
	var v219 uint64
	if v24 != 0 {
		v219 = v167
	} else {
		v219 = v218
	}
	vals[219] = v219
	v221 := v22
	vals[221] = v221
	v222 := (v221 << 2) & 0x3f
	vals[222] = v222
	v223 := (0x28 - v222) & 0x3f
	vals[223] = v223
	var v224 uint64
	if addr := uint64(v223); addr < uint64(len(m1)) {
		v224 = m1[addr] & 0xffffffff
	}
	vals[224] = v224
	v225 := (v219 ^ v224)
	vals[225] = v225
	var v228 uint64
	if v130 == 0x1 {
		v228 = 1
	}
	vals[228] = v228
	v230 := (v149 >> 24)
	vals[230] = v230
	v231 := v230 & 0xff
	vals[231] = v231
	var v232 uint64
	if addr := uint64(v231); addr < uint64(len(m2)) {
		v232 = m2[addr] & 0xff
	}
	vals[232] = v232
	v233 := v232
	vals[233] = v233
	v234 := (v233 << 24) & 0xffffffff
	vals[234] = v234
	v235 := (v156 >> 16)
	vals[235] = v235
	v236 := v235 & 0xff
	vals[236] = v236
	var v237 uint64
	if addr := uint64(v236); addr < uint64(len(m2)) {
		v237 = m2[addr] & 0xff
	}
	vals[237] = v237
	v238 := v237
	vals[238] = v238
	v239 := (v238 << 16) & 0xffffffff
	vals[239] = v239
	v240 := (v234 | v239)
	vals[240] = v240
	v241 := (v163 >> 8)
	vals[241] = v241
	v242 := v241 & 0xff
	vals[242] = v242
	var v243 uint64
	if addr := uint64(v242); addr < uint64(len(m2)) {
		v243 = m2[addr] & 0xff
	}
	vals[243] = v243
	v244 := v243
	vals[244] = v244
	v245 := (v244 << 8) & 0xffffffff
	vals[245] = v245
	v246 := (v240 | v245)
	vals[246] = v246
	v247 := v129 & 0xff
	vals[247] = v247
	var v248 uint64
	if addr := uint64(v247); addr < uint64(len(m2)) {
		v248 = m2[addr] & 0xff
	}
	vals[248] = v248
	v249 := v248
	vals[249] = v249
	v250 := (v246 | v249)
	vals[250] = v250
	v251 := (v232 << 1) & 0xff
	vals[251] = v251
	v252 := (v232 >> 7)
	vals[252] = v252
	v253 := v252 & 0x1
	vals[253] = v253
	var v254 uint64
	if v253 != 0 {
		v254 = 0x1b
	} else {
		v254 = 0x0
	}
	vals[254] = v254
	v255 := (v251 ^ v254)
	vals[255] = v255
	v256 := (v237 << 1) & 0xff
	vals[256] = v256
	v257 := (v237 >> 7)
	vals[257] = v257
	v258 := v257 & 0x1
	vals[258] = v258
	var v259 uint64
	if v258 != 0 {
		v259 = 0x1b
	} else {
		v259 = 0x0
	}
	vals[259] = v259
	v260 := (v256 ^ v259)
	vals[260] = v260
	v261 := (v260 ^ v237)
	vals[261] = v261
	v262 := (v255 ^ v261)
	vals[262] = v262
	v263 := (v262 ^ v243)
	vals[263] = v263
	v264 := (v263 ^ v248)
	vals[264] = v264
	v265 := v264
	vals[265] = v265
	v266 := (v265 << 24) & 0xffffffff
	vals[266] = v266
	v267 := (v232 ^ v260)
	vals[267] = v267
	v268 := (v243 << 1) & 0xff
	vals[268] = v268
	v269 := (v243 >> 7)
	vals[269] = v269
	v270 := v269 & 0x1
	vals[270] = v270
	var v271 uint64
	if v270 != 0 {
		v271 = 0x1b
	} else {
		v271 = 0x0
	}
	vals[271] = v271
	v272 := (v268 ^ v271)
	vals[272] = v272
	v273 := (v272 ^ v243)
	vals[273] = v273
	v274 := (v267 ^ v273)
	vals[274] = v274
	v275 := (v274 ^ v248)
	vals[275] = v275
	v276 := v275
	vals[276] = v276
	v277 := (v276 << 16) & 0xffffffff
	vals[277] = v277
	v278 := (v266 | v277)
	vals[278] = v278
	v279 := (v232 ^ v237)
	vals[279] = v279
	v280 := (v279 ^ v272)
	vals[280] = v280
	v281 := (v248 << 1) & 0xff
	vals[281] = v281
	v282 := (v248 >> 7)
	vals[282] = v282
	v283 := v282 & 0x1
	vals[283] = v283
	var v284 uint64
	if v283 != 0 {
		v284 = 0x1b
	} else {
		v284 = 0x0
	}
	vals[284] = v284
	v285 := (v281 ^ v284)
	vals[285] = v285
	v286 := (v285 ^ v248)
	vals[286] = v286
	v287 := (v280 ^ v286)
	vals[287] = v287
	v288 := v287
	vals[288] = v288
	v289 := (v288 << 8) & 0xffffffff
	vals[289] = v289
	v290 := (v278 | v289)
	vals[290] = v290
	v291 := (v255 ^ v232)
	vals[291] = v291
	v292 := (v291 ^ v237)
	vals[292] = v292
	v293 := (v292 ^ v243)
	vals[293] = v293
	v294 := (v293 ^ v285)
	vals[294] = v294
	v295 := v294
	vals[295] = v295
	v296 := (v290 | v295)
	vals[296] = v296
	var v297 uint64
	if v24 != 0 {
		v297 = v250
	} else {
		v297 = v296
	}
	vals[297] = v297
	v298 := (v223 + 0x1) & 0x3f
	vals[298] = v298
	var v299 uint64
	if addr := uint64(v298); addr < uint64(len(m1)) {
		v299 = m1[addr] & 0xffffffff
	}
	vals[299] = v299
	v300 := (v297 ^ v299)
	vals[300] = v300
	var v304 uint64
	if v130 == 0x2 {
		v304 = 1
	}
	vals[304] = v304
	v306 := (v156 >> 24)
	vals[306] = v306
	v307 := v306 & 0xff
	vals[307] = v307
	var v308 uint64
	if addr := uint64(v307); addr < uint64(len(m2)) {
		v308 = m2[addr] & 0xff
	}
	vals[308] = v308
	v309 := v308
	vals[309] = v309
	v310 := (v309 << 24) & 0xffffffff
	vals[310] = v310
	v311 := (v163 >> 16)
	vals[311] = v311
	v312 := v311 & 0xff
	vals[312] = v312
	var v313 uint64
	if addr := uint64(v312); addr < uint64(len(m2)) {
		v313 = m2[addr] & 0xff
	}
	vals[313] = v313
	v314 := v313
	vals[314] = v314
	v315 := (v314 << 16) & 0xffffffff
	vals[315] = v315
	v316 := (v310 | v315)
	vals[316] = v316
	v317 := (v129 >> 8)
	vals[317] = v317
	v318 := v317 & 0xff
	vals[318] = v318
	var v319 uint64
	if addr := uint64(v318); addr < uint64(len(m2)) {
		v319 = m2[addr] & 0xff
	}
	vals[319] = v319
	v320 := v319
	vals[320] = v320
	v321 := (v320 << 8) & 0xffffffff
	vals[321] = v321
	v322 := (v316 | v321)
	vals[322] = v322
	v323 := v149 & 0xff
	vals[323] = v323
	var v324 uint64
	if addr := uint64(v323); addr < uint64(len(m2)) {
		v324 = m2[addr] & 0xff
	}
	vals[324] = v324
	v325 := v324
	vals[325] = v325
	v326 := (v322 | v325)
	vals[326] = v326
	v327 := (v308 << 1) & 0xff
	vals[327] = v327
	v328 := (v308 >> 7)
	vals[328] = v328
	v329 := v328 & 0x1
	vals[329] = v329
	var v330 uint64
	if v329 != 0 {
		v330 = 0x1b
	} else {
		v330 = 0x0
	}
	vals[330] = v330
	v331 := (v327 ^ v330)
	vals[331] = v331
	v332 := (v313 << 1) & 0xff
	vals[332] = v332
	v333 := (v313 >> 7)
	vals[333] = v333
	v334 := v333 & 0x1
	vals[334] = v334
	var v335 uint64
	if v334 != 0 {
		v335 = 0x1b
	} else {
		v335 = 0x0
	}
	vals[335] = v335
	v336 := (v332 ^ v335)
	vals[336] = v336
	v337 := (v336 ^ v313)
	vals[337] = v337
	v338 := (v331 ^ v337)
	vals[338] = v338
	v339 := (v338 ^ v319)
	vals[339] = v339
	v340 := (v339 ^ v324)
	vals[340] = v340
	v341 := v340
	vals[341] = v341
	v342 := (v341 << 24) & 0xffffffff
	vals[342] = v342
	v343 := (v308 ^ v336)
	vals[343] = v343
	v344 := (v319 << 1) & 0xff
	vals[344] = v344
	v345 := (v319 >> 7)
	vals[345] = v345
	v346 := v345 & 0x1
	vals[346] = v346
	var v347 uint64
	if v346 != 0 {
		v347 = 0x1b
	} else {
		v347 = 0x0
	}
	vals[347] = v347
	v348 := (v344 ^ v347)
	vals[348] = v348
	v349 := (v348 ^ v319)
	vals[349] = v349
	v350 := (v343 ^ v349)
	vals[350] = v350
	v351 := (v350 ^ v324)
	vals[351] = v351
	v352 := v351
	vals[352] = v352
	v353 := (v352 << 16) & 0xffffffff
	vals[353] = v353
	v354 := (v342 | v353)
	vals[354] = v354
	v355 := (v308 ^ v313)
	vals[355] = v355
	v356 := (v355 ^ v348)
	vals[356] = v356
	v357 := (v324 << 1) & 0xff
	vals[357] = v357
	v358 := (v324 >> 7)
	vals[358] = v358
	v359 := v358 & 0x1
	vals[359] = v359
	var v360 uint64
	if v359 != 0 {
		v360 = 0x1b
	} else {
		v360 = 0x0
	}
	vals[360] = v360
	v361 := (v357 ^ v360)
	vals[361] = v361
	v362 := (v361 ^ v324)
	vals[362] = v362
	v363 := (v356 ^ v362)
	vals[363] = v363
	v364 := v363
	vals[364] = v364
	v365 := (v364 << 8) & 0xffffffff
	vals[365] = v365
	v366 := (v354 | v365)
	vals[366] = v366
	v367 := (v331 ^ v308)
	vals[367] = v367
	v368 := (v367 ^ v313)
	vals[368] = v368
	v369 := (v368 ^ v319)
	vals[369] = v369
	v370 := (v369 ^ v361)
	vals[370] = v370
	v371 := v370
	vals[371] = v371
	v372 := (v366 | v371)
	vals[372] = v372
	var v373 uint64
	if v24 != 0 {
		v373 = v326
	} else {
		v373 = v372
	}
	vals[373] = v373
	v375 := (v223 + 0x2) & 0x3f
	vals[375] = v375
	var v376 uint64
	if addr := uint64(v375); addr < uint64(len(m1)) {
		v376 = m1[addr] & 0xffffffff
	}
	vals[376] = v376
	v377 := (v373 ^ v376)
	vals[377] = v377
	var v381 uint64
	if v130 == 0x3 {
		v381 = 1
	}
	vals[381] = v381
	v383 := (v163 >> 24)
	vals[383] = v383
	v384 := v383 & 0xff
	vals[384] = v384
	var v385 uint64
	if addr := uint64(v384); addr < uint64(len(m2)) {
		v385 = m2[addr] & 0xff
	}
	vals[385] = v385
	v386 := v385
	vals[386] = v386
	v387 := (v386 << 24) & 0xffffffff
	vals[387] = v387
	v388 := (v129 >> 16)
	vals[388] = v388
	v389 := v388 & 0xff
	vals[389] = v389
	var v390 uint64
	if addr := uint64(v389); addr < uint64(len(m2)) {
		v390 = m2[addr] & 0xff
	}
	vals[390] = v390
	v391 := v390
	vals[391] = v391
	v392 := (v391 << 16) & 0xffffffff
	vals[392] = v392
	v393 := (v387 | v392)
	vals[393] = v393
	v394 := (v149 >> 8)
	vals[394] = v394
	v395 := v394 & 0xff
	vals[395] = v395
	var v396 uint64
	if addr := uint64(v395); addr < uint64(len(m2)) {
		v396 = m2[addr] & 0xff
	}
	vals[396] = v396
	v397 := v396
	vals[397] = v397
	v398 := (v397 << 8) & 0xffffffff
	vals[398] = v398
	v399 := (v393 | v398)
	vals[399] = v399
	v400 := v156 & 0xff
	vals[400] = v400
	var v401 uint64
	if addr := uint64(v400); addr < uint64(len(m2)) {
		v401 = m2[addr] & 0xff
	}
	vals[401] = v401
	v402 := v401
	vals[402] = v402
	v403 := (v399 | v402)
	vals[403] = v403
	v404 := (v385 << 1) & 0xff
	vals[404] = v404
	v405 := (v385 >> 7)
	vals[405] = v405
	v406 := v405 & 0x1
	vals[406] = v406
	var v407 uint64
	if v406 != 0 {
		v407 = 0x1b
	} else {
		v407 = 0x0
	}
	vals[407] = v407
	v408 := (v404 ^ v407)
	vals[408] = v408
	v409 := (v390 << 1) & 0xff
	vals[409] = v409
	v410 := (v390 >> 7)
	vals[410] = v410
	v411 := v410 & 0x1
	vals[411] = v411
	var v412 uint64
	if v411 != 0 {
		v412 = 0x1b
	} else {
		v412 = 0x0
	}
	vals[412] = v412
	v413 := (v409 ^ v412)
	vals[413] = v413
	v414 := (v413 ^ v390)
	vals[414] = v414
	v415 := (v408 ^ v414)
	vals[415] = v415
	v416 := (v415 ^ v396)
	vals[416] = v416
	v417 := (v416 ^ v401)
	vals[417] = v417
	v418 := v417
	vals[418] = v418
	v419 := (v418 << 24) & 0xffffffff
	vals[419] = v419
	v420 := (v385 ^ v413)
	vals[420] = v420
	v421 := (v396 << 1) & 0xff
	vals[421] = v421
	v422 := (v396 >> 7)
	vals[422] = v422
	v423 := v422 & 0x1
	vals[423] = v423
	var v424 uint64
	if v423 != 0 {
		v424 = 0x1b
	} else {
		v424 = 0x0
	}
	vals[424] = v424
	v425 := (v421 ^ v424)
	vals[425] = v425
	v426 := (v425 ^ v396)
	vals[426] = v426
	v427 := (v420 ^ v426)
	vals[427] = v427
	v428 := (v427 ^ v401)
	vals[428] = v428
	v429 := v428
	vals[429] = v429
	v430 := (v429 << 16) & 0xffffffff
	vals[430] = v430
	v431 := (v419 | v430)
	vals[431] = v431
	v432 := (v385 ^ v390)
	vals[432] = v432
	v433 := (v432 ^ v425)
	vals[433] = v433
	v434 := (v401 << 1) & 0xff
	vals[434] = v434
	v435 := (v401 >> 7)
	vals[435] = v435
	v436 := v435 & 0x1
	vals[436] = v436
	var v437 uint64
	if v436 != 0 {
		v437 = 0x1b
	} else {
		v437 = 0x0
	}
	vals[437] = v437
	v438 := (v434 ^ v437)
	vals[438] = v438
	v439 := (v438 ^ v401)
	vals[439] = v439
	v440 := (v433 ^ v439)
	vals[440] = v440
	v441 := v440
	vals[441] = v441
	v442 := (v441 << 8) & 0xffffffff
	vals[442] = v442
	v443 := (v431 | v442)
	vals[443] = v443
	v444 := (v408 ^ v385)
	vals[444] = v444
	v445 := (v444 ^ v390)
	vals[445] = v445
	v446 := (v445 ^ v396)
	vals[446] = v446
	v447 := (v446 ^ v438)
	vals[447] = v447
	v448 := v447
	vals[448] = v448
	v449 := (v443 | v448)
	vals[449] = v449
	var v450 uint64
	if v24 != 0 {
		v450 = v403
	} else {
		v450 = v449
	}
	vals[450] = v450
	v451 := (v223 + 0x3) & 0x3f
	vals[451] = v451
	var v452 uint64
	if addr := uint64(v451); addr < uint64(len(m1)) {
		v452 = m1[addr] & 0xffffffff
	}
	vals[452] = v452
	v453 := (v450 ^ v452)
	vals[453] = v453
	v460 := (v456 + 0x1) & 0xffffff
	vals[460] = v460
	v465 := (v462 + 0x1) & 0xffffff
	vals[465] = v465
	v470 := (v467 + 0x1) & 0xffffff
	vals[470] = v470
	v475 := (v472 + 0x1) & 0xffffff
	vals[475] = v475
	v480 := (v477 + 0x1) & 0xffffff
	vals[480] = v480
	v485 := (v482 + 0x1) & 0xffffff
	vals[485] = v485
	v489 := (v487 + 0x1) & 0xffffff
	vals[489] = v489
	v492 := (v491 + 0x1) & 0xffffff
	vals[492] = v492
	v495 := (v494 + 0x3) & 0xffffff
	vals[495] = v495
	v498 := (v497 + v5) & 0xffffff
	vals[498] = v498
	v501 := (v500 + 0x1) & 0xffffff
	vals[501] = v501
	v504 := (v503 + 0x27) & 0xffffff
	vals[504] = v504
	v507 := (v506 + v10) & 0xffffff
	vals[507] = v507
	v510 := (v509 + 0x1) & 0xffffff
	vals[510] = v510
	v513 := (v512 + v108) & 0xffffff
	vals[513] = v513
	v516 := (v515 + v28) & 0xffffff
	vals[516] = v516
	v519 := (v518 + 0x1) & 0xffffff
	vals[519] = v519
	v522 := (v521 + 0x17) & 0xffffff
	vals[522] = v522
	v525 := (v524 + v16) & 0xffffff
	vals[525] = v525
	v528 := (v527 + 0x1) & 0xffffff
	vals[528] = v528
	v531 := (v530 + 0x9) & 0xffffff
	vals[531] = v531
	v534 := (v533 + v22) & 0xffffff
	vals[534] = v534
	v539 := v134 & 0x3ff
	vals[539] = v539
	v540 := (v134 + 0x1) & 0xffff
	vals[540] = v540
	v541 := v540 & 0x3ff
	vals[541] = v541
	v543 := (v134 + 0x2) & 0xffff
	vals[543] = v543
	v544 := v543 & 0x3ff
	vals[544] = v544
	v546 := (v134 + 0x3) & 0xffff
	vals[546] = v546
	v547 := v546 & 0x3ff
	vals[547] = v547
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x0
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x0
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x0
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x0
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x0
		vals[37] = 0x0
		vals[38] = 0x1
		vals[42] = 0x3
		vals[43] = 0x0
		v49 := v48
		vals[49] = v49
		vals[54] = 0x0
		v103 := v50
		vals[103] = v103
		v104 := v103
		vals[104] = v104
		vals[110] = 0x0
		v112 := v28
		vals[112] = v112
		v113 := v108
		vals[113] = v113
		vals[114] = 0x0
		vals[115] = 0x0
		v121 := v120
		vals[121] = v121
		vals[122] = 0x0
		v128 := v127
		vals[128] = v128
		vals[132] = 0x0
		v226 := v129
		vals[226] = v226
		v227 := v226
		vals[227] = v227
		vals[229] = 0x0
		v301 := v149
		vals[301] = v301
		v302 := v301
		vals[302] = v302
		vals[305] = 0x0
		v378 := v156
		vals[378] = v378
		v379 := v378
		vals[379] = v379
		vals[382] = 0x0
		v454 := v163
		vals[454] = v454
		v455 := v454
		vals[455] = v455
		vals[457] = 0x1
		vals[458] = 0x1
		v461 := v460
		vals[461] = v461
		vals[463] = 0x0
		vals[464] = 0x0
		v466 := v462
		vals[466] = v466
		vals[468] = 0x0
		vals[469] = 0x0
		v471 := v467
		vals[471] = v471
		vals[473] = 0x0
		vals[474] = 0x0
		v476 := v472
		vals[476] = v476
		vals[478] = 0x0
		vals[479] = 0x0
		v481 := v477
		vals[481] = v481
		vals[483] = 0x0
		vals[484] = 0x0
		v486 := v482
		vals[486] = v486
		vals[488] = 0x0
		v490 := v487
		vals[490] = v490
		v493 := v492
		vals[493] = v493
		v496 := v495
		vals[496] = v496
		v499 := v498
		vals[499] = v499
		v502 := v500
		vals[502] = v502
		v505 := v503
		vals[505] = v505
		v508 := v506
		vals[508] = v508
		v511 := v510
		vals[511] = v511
		v514 := v513
		vals[514] = v514
		v517 := v516
		vals[517] = v517
		v520 := v518
		vals[520] = v520
		v523 := v521
		vals[523] = v523
		v526 := v524
		vals[526] = v526
		v529 := v527
		vals[529] = v529
		v532 := v530
		vals[532] = v532
		v535 := v533
		vals[535] = v535
		vals[536] = 0x0
		v537 := v58
		vals[537] = v537
		v538 := v102
		vals[538] = v538
		vals[548] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x1
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x1
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x1
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x1
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x1
		vals[34] = 0x1
		vals[35] = 0x1
		vals[36] = 0x1
		v37 := v8
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v42 := v41
		vals[42] = v42
		v43 := v6
		vals[43] = v43
		var v49 uint64
		if v43 != 0 {
			v49 = 0x27
		} else {
			v49 = v48
		}
		vals[49] = v49
		v54 := v53
		vals[54] = v54
		v103 := v50
		vals[103] = v103
		var v104 uint64
		if v54 != 0 {
			v104 = v56
		} else {
			v104 = v103
		}
		vals[104] = v104
		vals[110] = 0x0
		v112 := v28
		vals[112] = v112
		v113 := v112
		vals[113] = v113
		vals[114] = 0x0
		vals[115] = 0x0
		v121 := v120
		vals[121] = v121
		vals[122] = 0x0
		v128 := v127
		vals[128] = v128
		vals[132] = 0x0
		v226 := v129
		vals[226] = v226
		v227 := v226
		vals[227] = v227
		vals[229] = 0x0
		v301 := v149
		vals[301] = v301
		v302 := v301
		vals[302] = v302
		vals[305] = 0x0
		v378 := v156
		vals[378] = v378
		v379 := v378
		vals[379] = v379
		vals[382] = 0x0
		v454 := v163
		vals[454] = v454
		v455 := v454
		vals[455] = v455
		var v457 uint64
		if v38 == 0x1 {
			v457 = 1
		}
		vals[457] = v457
		vals[458] = 0x0
		v461 := v456
		vals[461] = v461
		var v463 uint64
		if v38 == 0x2 {
			v463 = 1
		}
		vals[463] = v463
		v464 := v463
		vals[464] = v464
		var v466 uint64
		if v464 != 0 {
			v466 = v465
		} else {
			v466 = v462
		}
		vals[466] = v466
		var v468 uint64
		if v38 == 0x3 {
			v468 = 1
		}
		vals[468] = v468
		vals[469] = 0x0
		v471 := v467
		vals[471] = v471
		var v473 uint64
		if v38 == 0x4 {
			v473 = 1
		}
		vals[473] = v473
		vals[474] = 0x0
		v476 := v472
		vals[476] = v476
		var v478 uint64
		if v38 == 0x5 {
			v478 = 1
		}
		vals[478] = v478
		vals[479] = 0x0
		v481 := v477
		vals[481] = v481
		var v483 uint64
		if v38 == 0x6 {
			v483 = 1
		}
		vals[483] = v483
		vals[484] = 0x0
		v486 := v482
		vals[486] = v486
		vals[488] = 0x0
		v490 := v487
		vals[490] = v490
		v493 := v491
		vals[493] = v493
		v496 := v494
		vals[496] = v496
		v499 := v497
		vals[499] = v499
		var v502 uint64
		if v43 != 0 {
			v502 = v501
		} else {
			v502 = v500
		}
		vals[502] = v502
		var v505 uint64
		if v43 != 0 {
			v505 = v504
		} else {
			v505 = v503
		}
		vals[505] = v505
		var v508 uint64
		if v43 != 0 {
			v508 = v507
		} else {
			v508 = v506
		}
		vals[508] = v508
		v511 := v509
		vals[511] = v511
		v514 := v512
		vals[514] = v514
		v517 := v515
		vals[517] = v517
		v520 := v518
		vals[520] = v520
		v523 := v521
		vals[523] = v523
		v526 := v524
		vals[526] = v526
		v529 := v527
		vals[529] = v529
		v532 := v530
		vals[532] = v532
		v535 := v533
		vals[535] = v535
		vals[536] = 0x1
		v537 := v52
		vals[537] = v537
		v538 := v56
		vals[538] = v538
		vals[548] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x2
		}
		vals[8] = v8
		vals[9] = 0x1
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x2
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x2
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x2
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x2
		vals[34] = 0x2
		vals[35] = 0x2
		v36 := v14
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v42 := v41
		vals[42] = v42
		vals[43] = 0x0
		v49 := v48
		vals[49] = v49
		vals[54] = 0x0
		v103 := v102
		vals[103] = v103
		v104 := v103
		vals[104] = v104
		vals[110] = 0x0
		v112 := v28
		vals[112] = v112
		v113 := v112
		vals[113] = v113
		v114 := v12
		vals[114] = v114
		v115 := v114
		vals[115] = v115
		var v121 uint64
		if v115 != 0 {
			v121 = 0x17
		} else {
			v121 = v120
		}
		vals[121] = v121
		vals[122] = 0x0
		v128 := v127
		vals[128] = v128
		vals[132] = 0x0
		v226 := v129
		vals[226] = v226
		v227 := v226
		vals[227] = v227
		vals[229] = 0x0
		v301 := v149
		vals[301] = v301
		v302 := v301
		vals[302] = v302
		vals[305] = 0x0
		v378 := v156
		vals[378] = v378
		v379 := v378
		vals[379] = v379
		vals[382] = 0x0
		v454 := v163
		vals[454] = v454
		v455 := v454
		vals[455] = v455
		var v457 uint64
		if v38 == 0x1 {
			v457 = 1
		}
		vals[457] = v457
		vals[458] = 0x0
		v461 := v456
		vals[461] = v461
		var v463 uint64
		if v38 == 0x2 {
			v463 = 1
		}
		vals[463] = v463
		vals[464] = 0x0
		v466 := v462
		vals[466] = v466
		var v468 uint64
		if v38 == 0x3 {
			v468 = 1
		}
		vals[468] = v468
		v469 := v468
		vals[469] = v469
		var v471 uint64
		if v469 != 0 {
			v471 = v470
		} else {
			v471 = v467
		}
		vals[471] = v471
		var v473 uint64
		if v38 == 0x4 {
			v473 = 1
		}
		vals[473] = v473
		vals[474] = 0x0
		v476 := v472
		vals[476] = v476
		var v478 uint64
		if v38 == 0x5 {
			v478 = 1
		}
		vals[478] = v478
		vals[479] = 0x0
		v481 := v477
		vals[481] = v481
		var v483 uint64
		if v38 == 0x6 {
			v483 = 1
		}
		vals[483] = v483
		vals[484] = 0x0
		v486 := v482
		vals[486] = v486
		vals[488] = 0x0
		v490 := v487
		vals[490] = v490
		v493 := v491
		vals[493] = v493
		v496 := v494
		vals[496] = v496
		v499 := v497
		vals[499] = v499
		v502 := v500
		vals[502] = v502
		v505 := v503
		vals[505] = v505
		v508 := v506
		vals[508] = v508
		v511 := v509
		vals[511] = v511
		v514 := v512
		vals[514] = v514
		v517 := v515
		vals[517] = v517
		var v520 uint64
		if v115 != 0 {
			v520 = v519
		} else {
			v520 = v518
		}
		vals[520] = v520
		var v523 uint64
		if v115 != 0 {
			v523 = v522
		} else {
			v523 = v521
		}
		vals[523] = v523
		var v526 uint64
		if v115 != 0 {
			v526 = v525
		} else {
			v526 = v524
		}
		vals[526] = v526
		v529 := v527
		vals[529] = v529
		v532 := v530
		vals[532] = v532
		v535 := v533
		vals[535] = v535
		vals[536] = 0x1
		v537 := v58
		vals[537] = v537
		v538 := v102
		vals[538] = v538
		vals[548] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x3
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x3
		}
		vals[14] = v14
		vals[15] = 0x1
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x3
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x3
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x3
		vals[34] = 0x3
		v35 := v20
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v42 := v41
		vals[42] = v42
		vals[43] = 0x0
		v49 := v48
		vals[49] = v49
		vals[54] = 0x0
		v103 := v50
		vals[103] = v103
		v104 := v103
		vals[104] = v104
		vals[110] = 0x0
		v112 := v28
		vals[112] = v112
		v113 := v112
		vals[113] = v113
		vals[114] = 0x0
		vals[115] = 0x0
		v121 := v120
		vals[121] = v121
		v122 := v18
		vals[122] = v122
		var v128 uint64
		if v122 != 0 {
			v128 = 0x9
		} else {
			v128 = v127
		}
		vals[128] = v128
		v132 := v131
		vals[132] = v132
		v226 := v129
		vals[226] = v226
		var v227 uint64
		if v132 != 0 {
			v227 = v143
		} else {
			v227 = v226
		}
		vals[227] = v227
		v229 := v228
		vals[229] = v229
		v301 := v149
		vals[301] = v301
		var v302 uint64
		if v229 != 0 {
			v302 = v143
		} else {
			v302 = v301
		}
		vals[302] = v302
		v305 := v304
		vals[305] = v305
		v378 := v156
		vals[378] = v378
		var v379 uint64
		if v305 != 0 {
			v379 = v143
		} else {
			v379 = v378
		}
		vals[379] = v379
		v382 := v381
		vals[382] = v382
		v454 := v163
		vals[454] = v454
		var v455 uint64
		if v382 != 0 {
			v455 = v143
		} else {
			v455 = v454
		}
		vals[455] = v455
		var v457 uint64
		if v38 == 0x1 {
			v457 = 1
		}
		vals[457] = v457
		vals[458] = 0x0
		v461 := v456
		vals[461] = v461
		var v463 uint64
		if v38 == 0x2 {
			v463 = 1
		}
		vals[463] = v463
		vals[464] = 0x0
		v466 := v462
		vals[466] = v466
		var v468 uint64
		if v38 == 0x3 {
			v468 = 1
		}
		vals[468] = v468
		vals[469] = 0x0
		v471 := v467
		vals[471] = v471
		var v473 uint64
		if v38 == 0x4 {
			v473 = 1
		}
		vals[473] = v473
		v474 := v473
		vals[474] = v474
		var v476 uint64
		if v474 != 0 {
			v476 = v475
		} else {
			v476 = v472
		}
		vals[476] = v476
		var v478 uint64
		if v38 == 0x5 {
			v478 = 1
		}
		vals[478] = v478
		vals[479] = 0x0
		v481 := v477
		vals[481] = v481
		var v483 uint64
		if v38 == 0x6 {
			v483 = 1
		}
		vals[483] = v483
		vals[484] = 0x0
		v486 := v482
		vals[486] = v486
		vals[488] = 0x0
		v490 := v487
		vals[490] = v490
		v493 := v491
		vals[493] = v493
		v496 := v494
		vals[496] = v496
		v499 := v497
		vals[499] = v499
		v502 := v500
		vals[502] = v502
		v505 := v503
		vals[505] = v505
		v508 := v506
		vals[508] = v508
		v511 := v509
		vals[511] = v511
		v514 := v512
		vals[514] = v514
		v517 := v515
		vals[517] = v517
		v520 := v518
		vals[520] = v520
		v523 := v521
		vals[523] = v523
		v526 := v524
		vals[526] = v526
		var v529 uint64
		if v122 != 0 {
			v529 = v528
		} else {
			v529 = v527
		}
		vals[529] = v529
		var v532 uint64
		if v122 != 0 {
			v532 = v531
		} else {
			v532 = v530
		}
		vals[532] = v532
		var v535 uint64
		if v122 != 0 {
			v535 = v534
		} else {
			v535 = v533
		}
		vals[535] = v535
		vals[536] = 0x0
		v537 := v58
		vals[537] = v537
		v538 := v102
		vals[538] = v538
		vals[548] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x4
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x4
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x4
		}
		vals[20] = v20
		vals[21] = 0x1
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x4
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x4
		v34 := v26
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v42 := v41
		vals[42] = v42
		vals[43] = 0x0
		v49 := v48
		vals[49] = v49
		vals[54] = 0x0
		v103 := v50
		vals[103] = v103
		v104 := v103
		vals[104] = v104
		vals[110] = 0x0
		v112 := v28
		vals[112] = v112
		v113 := v112
		vals[113] = v113
		vals[114] = 0x0
		vals[115] = 0x0
		v121 := v120
		vals[121] = v121
		vals[122] = 0x0
		v128 := v127
		vals[128] = v128
		vals[132] = 0x0
		v226 := v225
		vals[226] = v226
		v227 := v226
		vals[227] = v227
		vals[229] = 0x0
		v301 := v300
		vals[301] = v301
		v302 := v301
		vals[302] = v302
		vals[305] = 0x0
		v378 := v377
		vals[378] = v378
		v379 := v378
		vals[379] = v379
		vals[382] = 0x0
		v454 := v453
		vals[454] = v454
		v455 := v454
		vals[455] = v455
		var v457 uint64
		if v38 == 0x1 {
			v457 = 1
		}
		vals[457] = v457
		vals[458] = 0x0
		v461 := v456
		vals[461] = v461
		var v463 uint64
		if v38 == 0x2 {
			v463 = 1
		}
		vals[463] = v463
		vals[464] = 0x0
		v466 := v462
		vals[466] = v466
		var v468 uint64
		if v38 == 0x3 {
			v468 = 1
		}
		vals[468] = v468
		vals[469] = 0x0
		v471 := v467
		vals[471] = v471
		var v473 uint64
		if v38 == 0x4 {
			v473 = 1
		}
		vals[473] = v473
		vals[474] = 0x0
		v476 := v472
		vals[476] = v476
		var v478 uint64
		if v38 == 0x5 {
			v478 = 1
		}
		vals[478] = v478
		v479 := v478
		vals[479] = v479
		var v481 uint64
		if v479 != 0 {
			v481 = v480
		} else {
			v481 = v477
		}
		vals[481] = v481
		var v483 uint64
		if v38 == 0x6 {
			v483 = 1
		}
		vals[483] = v483
		vals[484] = 0x0
		v486 := v482
		vals[486] = v486
		vals[488] = 0x0
		v490 := v487
		vals[490] = v490
		v493 := v491
		vals[493] = v493
		v496 := v494
		vals[496] = v496
		v499 := v497
		vals[499] = v499
		v502 := v500
		vals[502] = v502
		v505 := v503
		vals[505] = v505
		v508 := v506
		vals[508] = v508
		v511 := v509
		vals[511] = v511
		v514 := v512
		vals[514] = v514
		v517 := v515
		vals[517] = v517
		v520 := v518
		vals[520] = v520
		v523 := v521
		vals[523] = v523
		v526 := v524
		vals[526] = v526
		v529 := v527
		vals[529] = v529
		v532 := v530
		vals[532] = v532
		v535 := v533
		vals[535] = v535
		vals[536] = 0x0
		v537 := v58
		vals[537] = v537
		v538 := v102
		vals[538] = v538
		vals[548] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x5
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x5
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x5
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x5
		}
		vals[26] = v26
		vals[27] = 0x1
		v33 := v32
		vals[33] = v33
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
		v42 := v41
		vals[42] = v42
		vals[43] = 0x0
		v49 := v48
		vals[49] = v49
		vals[54] = 0x0
		v103 := v50
		vals[103] = v103
		v104 := v103
		vals[104] = v104
		v110 := v109
		vals[110] = v110
		var v112 uint64
		if v110 != 0 {
			v112 = v111
		} else {
			v112 = v28
		}
		vals[112] = v112
		v113 := v112
		vals[113] = v113
		vals[114] = 0x0
		v115 := v110
		vals[115] = v115
		var v121 uint64
		if v115 != 0 {
			v121 = 0x17
		} else {
			v121 = v120
		}
		vals[121] = v121
		vals[122] = 0x0
		v128 := v127
		vals[128] = v128
		vals[132] = 0x0
		v226 := v129
		vals[226] = v226
		v227 := v226
		vals[227] = v227
		vals[229] = 0x0
		v301 := v149
		vals[301] = v301
		v302 := v301
		vals[302] = v302
		vals[305] = 0x0
		v378 := v156
		vals[378] = v378
		v379 := v378
		vals[379] = v379
		vals[382] = 0x0
		v454 := v163
		vals[454] = v454
		v455 := v454
		vals[455] = v455
		var v457 uint64
		if v38 == 0x1 {
			v457 = 1
		}
		vals[457] = v457
		vals[458] = 0x0
		v461 := v456
		vals[461] = v461
		var v463 uint64
		if v38 == 0x2 {
			v463 = 1
		}
		vals[463] = v463
		vals[464] = 0x0
		v466 := v462
		vals[466] = v466
		var v468 uint64
		if v38 == 0x3 {
			v468 = 1
		}
		vals[468] = v468
		vals[469] = 0x0
		v471 := v467
		vals[471] = v471
		var v473 uint64
		if v38 == 0x4 {
			v473 = 1
		}
		vals[473] = v473
		vals[474] = 0x0
		v476 := v472
		vals[476] = v476
		var v478 uint64
		if v38 == 0x5 {
			v478 = 1
		}
		vals[478] = v478
		vals[479] = 0x0
		v481 := v477
		vals[481] = v481
		var v483 uint64
		if v38 == 0x6 {
			v483 = 1
		}
		vals[483] = v483
		v484 := v483
		vals[484] = v484
		var v486 uint64
		if v484 != 0 {
			v486 = v485
		} else {
			v486 = v482
		}
		vals[486] = v486
		v488 := v468
		vals[488] = v488
		var v490 uint64
		if v488 != 0 {
			v490 = v489
		} else {
			v490 = v487
		}
		vals[490] = v490
		v493 := v491
		vals[493] = v493
		v496 := v494
		vals[496] = v496
		v499 := v497
		vals[499] = v499
		v502 := v500
		vals[502] = v502
		v505 := v503
		vals[505] = v505
		v508 := v506
		vals[508] = v508
		v511 := v509
		vals[511] = v511
		v514 := v512
		vals[514] = v514
		v517 := v515
		vals[517] = v517
		var v520 uint64
		if v115 != 0 {
			v520 = v519
		} else {
			v520 = v518
		}
		vals[520] = v520
		var v523 uint64
		if v115 != 0 {
			v523 = v522
		} else {
			v523 = v521
		}
		vals[523] = v523
		var v526 uint64
		if v115 != 0 {
			v526 = v525
		} else {
			v526 = v524
		}
		vals[526] = v526
		v529 := v527
		vals[529] = v529
		v532 := v530
		vals[532] = v532
		v535 := v533
		vals[535] = v535
		vals[536] = 0x0
		v537 := v58
		vals[537] = v537
		v538 := v102
		vals[538] = v538
		vals[548] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x6
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x6
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x6
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x6
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x6
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x6
		vals[37] = 0x6
		vals[38] = 0x6
		v42 := v41
		vals[42] = v42
		vals[43] = 0x0
		v49 := v48
		vals[49] = v49
		vals[54] = 0x0
		v103 := v50
		vals[103] = v103
		v104 := v103
		vals[104] = v104
		vals[110] = 0x0
		v112 := v28
		vals[112] = v112
		v113 := v112
		vals[113] = v113
		vals[114] = 0x0
		vals[115] = 0x0
		v121 := v120
		vals[121] = v121
		vals[122] = 0x0
		v128 := v127
		vals[128] = v128
		vals[132] = 0x0
		v226 := v129
		vals[226] = v226
		v227 := v226
		vals[227] = v227
		vals[229] = 0x0
		v301 := v149
		vals[301] = v301
		v302 := v301
		vals[302] = v302
		vals[305] = 0x0
		v378 := v156
		vals[378] = v378
		v379 := v378
		vals[379] = v379
		vals[382] = 0x0
		v454 := v163
		vals[454] = v454
		v455 := v454
		vals[455] = v455
		vals[457] = 0x0
		vals[458] = 0x0
		v461 := v456
		vals[461] = v461
		vals[463] = 0x0
		vals[464] = 0x0
		v466 := v462
		vals[466] = v466
		vals[468] = 0x0
		vals[469] = 0x0
		v471 := v467
		vals[471] = v471
		vals[473] = 0x0
		vals[474] = 0x0
		v476 := v472
		vals[476] = v476
		vals[478] = 0x0
		vals[479] = 0x0
		v481 := v477
		vals[481] = v481
		vals[483] = 0x1
		vals[484] = 0x0
		v486 := v482
		vals[486] = v486
		vals[488] = 0x0
		v490 := v487
		vals[490] = v490
		v493 := v491
		vals[493] = v493
		v496 := v494
		vals[496] = v496
		v499 := v497
		vals[499] = v499
		v502 := v500
		vals[502] = v502
		v505 := v503
		vals[505] = v505
		v508 := v506
		vals[508] = v508
		v511 := v509
		vals[511] = v511
		v514 := v512
		vals[514] = v514
		v517 := v515
		vals[517] = v517
		v520 := v518
		vals[520] = v520
		v523 := v521
		vals[523] = v523
		v526 := v524
		vals[526] = v526
		v529 := v527
		vals[529] = v529
		v532 := v530
		vals[532] = v532
		v535 := v533
		vals[535] = v535
		vals[536] = 0x0
		v537 := v58
		vals[537] = v537
		v538 := v102
		vals[538] = v538
		vals[548] = 0x1
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
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = v0
		}
		vals[8] = v8
		var v9 uint64
		if v0 == 0x2 {
			v9 = 1
		}
		vals[9] = v9
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = v0
		}
		vals[14] = v14
		var v15 uint64
		if v0 == 0x3 {
			v15 = 1
		}
		vals[15] = v15
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = v0
		}
		vals[20] = v20
		var v21 uint64
		if v0 == 0x4 {
			v21 = 1
		}
		vals[21] = v21
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = v0
		}
		vals[26] = v26
		var v27 uint64
		if v0 == 0x5 {
			v27 = 1
		}
		vals[27] = v27
		var v33 uint64
		if v27 != 0 {
			v33 = v32
		} else {
			v33 = v0
		}
		vals[33] = v33
		var v34 uint64
		if v21 != 0 {
			v34 = v26
		} else {
			v34 = v33
		}
		vals[34] = v34
		var v35 uint64
		if v15 != 0 {
			v35 = v20
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v9 != 0 {
			v36 = v14
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v37 uint64
		if v4 != 0 {
			v37 = v8
		} else {
			v37 = v36
		}
		vals[37] = v37
		var v38 uint64
		if v2 != 0 {
			v38 = 0x1
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v42 uint64
		if v2 != 0 {
			v42 = 0x3
		} else {
			v42 = v41
		}
		vals[42] = v42
		v43 := v4 & v6
		vals[43] = v43
		var v49 uint64
		if v43 != 0 {
			v49 = 0x27
		} else {
			v49 = v48
		}
		vals[49] = v49
		v54 := v4 & v53
		vals[54] = v54
		var v103 uint64
		if v9 != 0 {
			v103 = v102
		} else {
			v103 = v50
		}
		vals[103] = v103
		var v104 uint64
		if v54 != 0 {
			v104 = v56
		} else {
			v104 = v103
		}
		vals[104] = v104
		v110 := v27 & v109
		vals[110] = v110
		var v112 uint64
		if v110 != 0 {
			v112 = v111
		} else {
			v112 = v28
		}
		vals[112] = v112
		var v113 uint64
		if v2 != 0 {
			v113 = v108
		} else {
			v113 = v112
		}
		vals[113] = v113
		v114 := v9 & v12
		vals[114] = v114
		v115 := (v114 | v110)
		vals[115] = v115
		var v121 uint64
		if v115 != 0 {
			v121 = 0x17
		} else {
			v121 = v120
		}
		vals[121] = v121
		v122 := v15 & v18
		vals[122] = v122
		var v128 uint64
		if v122 != 0 {
			v128 = 0x9
		} else {
			v128 = v127
		}
		vals[128] = v128
		v132 := v15 & v131
		vals[132] = v132
		var v226 uint64
		if v21 != 0 {
			v226 = v225
		} else {
			v226 = v129
		}
		vals[226] = v226
		var v227 uint64
		if v132 != 0 {
			v227 = v143
		} else {
			v227 = v226
		}
		vals[227] = v227
		v229 := v15 & v228
		vals[229] = v229
		var v301 uint64
		if v21 != 0 {
			v301 = v300
		} else {
			v301 = v149
		}
		vals[301] = v301
		var v302 uint64
		if v229 != 0 {
			v302 = v143
		} else {
			v302 = v301
		}
		vals[302] = v302
		v305 := v15 & v304
		vals[305] = v305
		var v378 uint64
		if v21 != 0 {
			v378 = v377
		} else {
			v378 = v156
		}
		vals[378] = v378
		var v379 uint64
		if v305 != 0 {
			v379 = v143
		} else {
			v379 = v378
		}
		vals[379] = v379
		v382 := v15 & v381
		vals[382] = v382
		var v454 uint64
		if v21 != 0 {
			v454 = v453
		} else {
			v454 = v163
		}
		vals[454] = v454
		var v455 uint64
		if v382 != 0 {
			v455 = v143
		} else {
			v455 = v454
		}
		vals[455] = v455
		var v457 uint64
		if v38 == 0x1 {
			v457 = 1
		}
		vals[457] = v457
		v458 := v2 & v457
		vals[458] = v458
		var v461 uint64
		if v458 != 0 {
			v461 = v460
		} else {
			v461 = v456
		}
		vals[461] = v461
		var v463 uint64
		if v38 == 0x2 {
			v463 = 1
		}
		vals[463] = v463
		v464 := v4 & v463
		vals[464] = v464
		var v466 uint64
		if v464 != 0 {
			v466 = v465
		} else {
			v466 = v462
		}
		vals[466] = v466
		var v468 uint64
		if v38 == 0x3 {
			v468 = 1
		}
		vals[468] = v468
		v469 := v9 & v468
		vals[469] = v469
		var v471 uint64
		if v469 != 0 {
			v471 = v470
		} else {
			v471 = v467
		}
		vals[471] = v471
		var v473 uint64
		if v38 == 0x4 {
			v473 = 1
		}
		vals[473] = v473
		v474 := v15 & v473
		vals[474] = v474
		var v476 uint64
		if v474 != 0 {
			v476 = v475
		} else {
			v476 = v472
		}
		vals[476] = v476
		var v478 uint64
		if v38 == 0x5 {
			v478 = 1
		}
		vals[478] = v478
		v479 := v21 & v478
		vals[479] = v479
		var v481 uint64
		if v479 != 0 {
			v481 = v480
		} else {
			v481 = v477
		}
		vals[481] = v481
		var v483 uint64
		if v38 == 0x6 {
			v483 = 1
		}
		vals[483] = v483
		v484 := v27 & v483
		vals[484] = v484
		var v486 uint64
		if v484 != 0 {
			v486 = v485
		} else {
			v486 = v482
		}
		vals[486] = v486
		v488 := v27 & v468
		vals[488] = v488
		var v490 uint64
		if v488 != 0 {
			v490 = v489
		} else {
			v490 = v487
		}
		vals[490] = v490
		var v493 uint64
		if v2 != 0 {
			v493 = v492
		} else {
			v493 = v491
		}
		vals[493] = v493
		var v496 uint64
		if v2 != 0 {
			v496 = v495
		} else {
			v496 = v494
		}
		vals[496] = v496
		var v499 uint64
		if v2 != 0 {
			v499 = v498
		} else {
			v499 = v497
		}
		vals[499] = v499
		var v502 uint64
		if v43 != 0 {
			v502 = v501
		} else {
			v502 = v500
		}
		vals[502] = v502
		var v505 uint64
		if v43 != 0 {
			v505 = v504
		} else {
			v505 = v503
		}
		vals[505] = v505
		var v508 uint64
		if v43 != 0 {
			v508 = v507
		} else {
			v508 = v506
		}
		vals[508] = v508
		var v511 uint64
		if v2 != 0 {
			v511 = v510
		} else {
			v511 = v509
		}
		vals[511] = v511
		var v514 uint64
		if v2 != 0 {
			v514 = v513
		} else {
			v514 = v512
		}
		vals[514] = v514
		var v517 uint64
		if v2 != 0 {
			v517 = v516
		} else {
			v517 = v515
		}
		vals[517] = v517
		var v520 uint64
		if v115 != 0 {
			v520 = v519
		} else {
			v520 = v518
		}
		vals[520] = v520
		var v523 uint64
		if v115 != 0 {
			v523 = v522
		} else {
			v523 = v521
		}
		vals[523] = v523
		var v526 uint64
		if v115 != 0 {
			v526 = v525
		} else {
			v526 = v524
		}
		vals[526] = v526
		var v529 uint64
		if v122 != 0 {
			v529 = v528
		} else {
			v529 = v527
		}
		vals[529] = v529
		var v532 uint64
		if v122 != 0 {
			v532 = v531
		} else {
			v532 = v530
		}
		vals[532] = v532
		var v535 uint64
		if v122 != 0 {
			v535 = v534
		} else {
			v535 = v533
		}
		vals[535] = v535
		v536 := (v4 | v9)
		vals[536] = v536
		var v537 uint64
		if v4 != 0 {
			v537 = v52
		} else {
			v537 = v58
		}
		vals[537] = v537
		var v538 uint64
		if v4 != 0 {
			v538 = v56
		} else {
			v538 = v102
		}
		vals[538] = v538
		var v548 uint64
		if v0 == 0x6 {
			v548 = 1
		}
		vals[548] = v548
	}
	done := vals[548] != 0
	if vals[536] != 0 {
		if addr := vals[537]; addr < uint64(len(m1)) {
			m1[addr] = vals[538]
		}
	}
	if vals[27] != 0 {
		if addr := vals[539]; addr < uint64(len(m4)) {
			m4[addr] = vals[129]
		}
	}
	if vals[27] != 0 {
		if addr := vals[541]; addr < uint64(len(m4)) {
			m4[addr] = vals[149]
		}
	}
	if vals[27] != 0 {
		if addr := vals[544]; addr < uint64(len(m4)) {
			m4[addr] = vals[156]
		}
	}
	if vals[27] != 0 {
		if addr := vals[547]; addr < uint64(len(m4)) {
			m4[addr] = vals[163]
		}
	}
	l0 := vals[38] & 0x7
	l1 := vals[42] & 0x7
	l2 := vals[49] & 0x3f
	l3 := vals[104] & 0xffffffff
	l4 := vals[113] & 0xffff
	l5 := vals[121] & 0x1f
	l6 := vals[128] & 0xf
	l7 := vals[227] & 0xffffffff
	l8 := vals[302] & 0xffffffff
	l9 := vals[379] & 0xffffffff
	l10 := vals[455] & 0xffffffff
	l11 := vals[461] & 0xffffff
	l12 := vals[466] & 0xffffff
	l13 := vals[471] & 0xffffff
	l14 := vals[476] & 0xffffff
	l15 := vals[481] & 0xffffff
	l16 := vals[486] & 0xffffff
	l17 := vals[490] & 0xffffff
	l18 := vals[493] & 0xffffff
	l19 := vals[496] & 0xffffff
	l20 := vals[499] & 0xffffff
	l21 := vals[502] & 0xffffff
	l22 := vals[505] & 0xffffff
	l23 := vals[508] & 0xffffff
	l24 := vals[511] & 0xffffff
	l25 := vals[514] & 0xffffff
	l26 := vals[517] & 0xffffff
	l27 := vals[520] & 0xffffff
	l28 := vals[523] & 0xffffff
	l29 := vals[526] & 0xffffff
	l30 := vals[529] & 0xffffff
	l31 := vals[532] & 0xffffff
	l32 := vals[535] & 0xffffff
	vals[0] = l0
	vals[5] = l1
	vals[10] = l2
	vals[50] = l3
	vals[28] = l4
	vals[16] = l5
	vals[22] = l6
	vals[129] = l7
	vals[149] = l8
	vals[156] = l9
	vals[163] = l10
	vals[456] = l11
	vals[462] = l12
	vals[467] = l13
	vals[472] = l14
	vals[477] = l15
	vals[482] = l16
	vals[487] = l17
	vals[491] = l18
	vals[494] = l19
	vals[497] = l20
	vals[500] = l21
	vals[503] = l22
	vals[506] = l23
	vals[509] = l24
	vals[512] = l25
	vals[515] = l26
	vals[518] = l27
	vals[521] = l28
	vals[524] = l29
	vals[527] = l30
	vals[530] = l31
	vals[533] = l32
	return cycles + 1, done
}

func step_aes_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[90]
	m0 := mems[0]
	v0 := vals[0]
	v5 := vals[5]
	v10 := vals[10]
	v16 := vals[16]
	v22 := vals[22]
	v28 := vals[28]
	v74 := vals[74]
	v78 := vals[78]
	v81 := vals[81]
	v84 := vals[84]
	v87 := vals[87]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v50 uint64
		if v22 != 0x0 {
			v50 = 1
		}
		v52 := (v22 - 0x1) & 0xf
		var v53 uint64
		if v50 != 0 {
			v53 = v52
		} else {
			v53 = v22
		}
		var v58 uint64
		if v16 != 0x0 {
			v58 = 1
		}
		v60 := (v16 - 0x1) & 0x1f
		var v61 uint64
		if v58 != 0 {
			v61 = v60
		} else {
			v61 = v16
		}
		var v65 uint64
		if v10 != 0x0 {
			v65 = 1
		}
		v67 := (v10 - 0x1) & 0x3f
		var v68 uint64
		if v65 != 0 {
			v68 = v67
		} else {
			v68 = v10
		}
		switch v0 {
		case 0x0:
			var v40 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0xffff
			}
			v42 := (v40 - 0x1) & 0xffff
			v82 := (v81 + 0x1) & 0xffffff
			v88 := (v87 + 0x1) & 0xffffff
			v47 := v42
			v54 := v53
			v62 := v61
			v69 := v68
			v77 := v74
			v80 := v78
			v83 := v82
			v86 := v84
			v89 := v88
			n1 := v47
			n2 := v54
			n3 := v62
			n4 := v69
			n6 := v77
			n7 := v80
			n8 := v83
			n9 := v86
			n10 := v89
			v0 = 0x1
			v28 = n1
			v22 = n2
			v16 = n3
			v10 = n4
			v5 = 0x3
			v74 = n6
			v78 = n7
			v81 = n8
			v84 = n9
			v87 = n10
		case 0x1:
			var v6 uint64
			if v5 == 0x0 {
				v6 = 1
			}
			var v70 uint64
			if v5 != 0x0 {
				v70 = 1
			}
			v71 := (v5 - 0x1) & 0x7
			var v72 uint64
			if v70 != 0 {
				v72 = v71
			} else {
				v72 = v5
			}
			v85 := (v84 + 0x1) & 0xffffff
			var v8 uint64
			if v6 != 0 {
				v8 = 0x2
			} else {
				v8 = 0x1
			}
			v37 := v8
			v38 := v37
			v46 := v28
			v47 := v46
			v54 := v53
			v62 := v61
			v63 := v6
			var v69 uint64
			if v63 != 0 {
				v69 = 0x27
			} else {
				v69 = v68
			}
			v73 := v72
			v77 := v74
			v80 := v78
			v83 := v81
			var v86 uint64
			if v63 != 0 {
				v86 = v85
			} else {
				v86 = v84
			}
			v89 := v87
			n0 := v38
			n1 := v47
			n2 := v54
			n3 := v62
			n4 := v69
			n5 := v73
			n6 := v77
			n7 := v80
			n8 := v83
			n9 := v86
			n10 := v89
			v0 = n0
			v28 = n1
			v22 = n2
			v16 = n3
			v10 = n4
			v5 = n5
			v74 = n6
			v78 = n7
			v81 = n8
			v84 = n9
			v87 = n10
		case 0x2:
			var v12 uint64
			if v10 == 0x0 {
				v12 = 1
			}
			var v70 uint64
			if v5 != 0x0 {
				v70 = 1
			}
			v71 := (v5 - 0x1) & 0x7
			var v72 uint64
			if v70 != 0 {
				v72 = v71
			} else {
				v72 = v5
			}
			v79 := (v78 + 0x1) & 0xffffff
			var v14 uint64
			if v12 != 0 {
				v14 = 0x3
			} else {
				v14 = 0x2
			}
			v36 := v14
			v37 := v36
			v38 := v37
			v46 := v28
			v47 := v46
			v54 := v53
			v55 := v12
			v56 := v55
			var v62 uint64
			if v56 != 0 {
				v62 = 0x17
			} else {
				v62 = v61
			}
			v69 := v68
			v73 := v72
			v77 := v74
			var v80 uint64
			if v56 != 0 {
				v80 = v79
			} else {
				v80 = v78
			}
			v83 := v81
			v86 := v84
			v89 := v87
			n0 := v38
			n1 := v47
			n2 := v54
			n3 := v62
			n4 := v69
			n5 := v73
			n6 := v77
			n7 := v80
			n8 := v83
			n9 := v86
			n10 := v89
			v0 = n0
			v28 = n1
			v22 = n2
			v16 = n3
			v10 = n4
			v5 = n5
			v74 = n6
			v78 = n7
			v81 = n8
			v84 = n9
			v87 = n10
		case 0x3:
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v70 uint64
			if v5 != 0x0 {
				v70 = 1
			}
			v71 := (v5 - 0x1) & 0x7
			var v72 uint64
			if v70 != 0 {
				v72 = v71
			} else {
				v72 = v5
			}
			v76 := (v74 + 0x1) & 0xffffff
			var v20 uint64
			if v18 != 0 {
				v20 = 0x4
			} else {
				v20 = 0x3
			}
			v35 := v20
			v36 := v35
			v37 := v36
			v38 := v37
			v46 := v28
			v47 := v46
			v48 := v18
			var v54 uint64
			if v48 != 0 {
				v54 = 0x9
			} else {
				v54 = v53
			}
			v62 := v61
			v69 := v68
			v73 := v72
			var v77 uint64
			if v48 != 0 {
				v77 = v76
			} else {
				v77 = v74
			}
			v80 := v78
			v83 := v81
			v86 := v84
			v89 := v87
			n0 := v38
			n1 := v47
			n2 := v54
			n3 := v62
			n4 := v69
			n5 := v73
			n6 := v77
			n7 := v80
			n8 := v83
			n9 := v86
			n10 := v89
			v0 = n0
			v28 = n1
			v22 = n2
			v16 = n3
			v10 = n4
			v5 = n5
			v74 = n6
			v78 = n7
			v81 = n8
			v84 = n9
			v87 = n10
		case 0x4:
			var v24 uint64
			if v22 == 0x0 {
				v24 = 1
			}
			var v70 uint64
			if v5 != 0x0 {
				v70 = 1
			}
			v71 := (v5 - 0x1) & 0x7
			var v72 uint64
			if v70 != 0 {
				v72 = v71
			} else {
				v72 = v5
			}
			var v26 uint64
			if v24 != 0 {
				v26 = 0x5
			} else {
				v26 = 0x4
			}
			v34 := v26
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v46 := v28
			v47 := v46
			v54 := v53
			v62 := v61
			v69 := v68
			v73 := v72
			v77 := v74
			v80 := v78
			v83 := v81
			v86 := v84
			v89 := v87
			n0 := v38
			n1 := v47
			n2 := v54
			n3 := v62
			n4 := v69
			n5 := v73
			n6 := v77
			n7 := v80
			n8 := v83
			n9 := v86
			n10 := v89
			v0 = n0
			v28 = n1
			v22 = n2
			v16 = n3
			v10 = n4
			v5 = n5
			v74 = n6
			v78 = n7
			v81 = n8
			v84 = n9
			v87 = n10
		case 0x5:
			var v30 uint64
			if v28 == 0x0 {
				v30 = 1
			}
			var v32 uint64
			if v30 != 0 {
				v32 = 0x6
			} else {
				v32 = 0x3
			}
			var v43 uint64
			if v28 != 0x0 {
				v43 = 1
			}
			v45 := (v28 - 0x1) & 0xffff
			var v70 uint64
			if v5 != 0x0 {
				v70 = 1
			}
			v71 := (v5 - 0x1) & 0x7
			var v72 uint64
			if v70 != 0 {
				v72 = v71
			} else {
				v72 = v5
			}
			v79 := (v78 + 0x1) & 0xffffff
			v33 := v32
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v44 := v43
			var v46 uint64
			if v44 != 0 {
				v46 = v45
			} else {
				v46 = v28
			}
			v47 := v46
			v54 := v53
			v56 := v44
			var v62 uint64
			if v56 != 0 {
				v62 = 0x17
			} else {
				v62 = v61
			}
			v69 := v68
			v73 := v72
			v77 := v74
			var v80 uint64
			if v56 != 0 {
				v80 = v79
			} else {
				v80 = v78
			}
			v83 := v81
			v86 := v84
			v89 := v87
			n0 := v38
			n1 := v47
			n2 := v54
			n3 := v62
			n4 := v69
			n5 := v73
			n6 := v77
			n7 := v80
			n8 := v83
			n9 := v86
			n10 := v89
			v0 = n0
			v28 = n1
			v22 = n2
			v16 = n3
			v10 = n4
			v5 = n5
			v74 = n6
			v78 = n7
			v81 = n8
			v84 = n9
			v87 = n10
		case 0x6:
			break loop
		default:
			var v6 uint64
			if v5 == 0x0 {
				v6 = 1
			}
			var v12 uint64
			if v10 == 0x0 {
				v12 = 1
			}
			var v18 uint64
			if v16 == 0x0 {
				v18 = 1
			}
			var v24 uint64
			if v22 == 0x0 {
				v24 = 1
			}
			var v30 uint64
			if v28 == 0x0 {
				v30 = 1
			}
			var v32 uint64
			if v30 != 0 {
				v32 = 0x6
			} else {
				v32 = 0x3
			}
			var v40 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0xffff
			}
			v42 := (v40 - 0x1) & 0xffff
			var v43 uint64
			if v28 != 0x0 {
				v43 = 1
			}
			v45 := (v28 - 0x1) & 0xffff
			var v70 uint64
			if v5 != 0x0 {
				v70 = 1
			}
			v71 := (v5 - 0x1) & 0x7
			var v72 uint64
			if v70 != 0 {
				v72 = v71
			} else {
				v72 = v5
			}
			v76 := (v74 + 0x1) & 0xffffff
			v79 := (v78 + 0x1) & 0xffffff
			v82 := (v81 + 0x1) & 0xffffff
			v85 := (v84 + 0x1) & 0xffffff
			v88 := (v87 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v8 uint64
			if v6 != 0 {
				v8 = 0x2
			} else {
				v8 = v0
			}
			var v9 uint64
			if v0 == 0x2 {
				v9 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x3
			} else {
				v14 = v0
			}
			var v15 uint64
			if v0 == 0x3 {
				v15 = 1
			}
			var v20 uint64
			if v18 != 0 {
				v20 = 0x4
			} else {
				v20 = v0
			}
			var v21 uint64
			if v0 == 0x4 {
				v21 = 1
			}
			var v26 uint64
			if v24 != 0 {
				v26 = 0x5
			} else {
				v26 = v0
			}
			var v27 uint64
			if v0 == 0x5 {
				v27 = 1
			}
			var v33 uint64
			if v27 != 0 {
				v33 = v32
			} else {
				v33 = v0
			}
			var v34 uint64
			if v21 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			var v35 uint64
			if v15 != 0 {
				v35 = v20
			} else {
				v35 = v34
			}
			var v36 uint64
			if v9 != 0 {
				v36 = v14
			} else {
				v36 = v35
			}
			var v37 uint64
			if v4 != 0 {
				v37 = v8
			} else {
				v37 = v36
			}
			var v38 uint64
			if v2 != 0 {
				v38 = 0x1
			} else {
				v38 = v37
			}
			v44 := v27 & v43
			var v46 uint64
			if v44 != 0 {
				v46 = v45
			} else {
				v46 = v28
			}
			var v47 uint64
			if v2 != 0 {
				v47 = v42
			} else {
				v47 = v46
			}
			v48 := v15 & v18
			var v54 uint64
			if v48 != 0 {
				v54 = 0x9
			} else {
				v54 = v53
			}
			v55 := v9 & v12
			v56 := (v55 | v44)
			var v62 uint64
			if v56 != 0 {
				v62 = 0x17
			} else {
				v62 = v61
			}
			v63 := v4 & v6
			var v69 uint64
			if v63 != 0 {
				v69 = 0x27
			} else {
				v69 = v68
			}
			var v73 uint64
			if v2 != 0 {
				v73 = 0x3
			} else {
				v73 = v72
			}
			var v77 uint64
			if v48 != 0 {
				v77 = v76
			} else {
				v77 = v74
			}
			var v80 uint64
			if v56 != 0 {
				v80 = v79
			} else {
				v80 = v78
			}
			var v83 uint64
			if v2 != 0 {
				v83 = v82
			} else {
				v83 = v81
			}
			var v86 uint64
			if v63 != 0 {
				v86 = v85
			} else {
				v86 = v84
			}
			var v89 uint64
			if v2 != 0 {
				v89 = v88
			} else {
				v89 = v87
			}
			var v90 uint64
			if v0 == 0x6 {
				v90 = 1
			}
			if v90 != 0 {
				break loop
			}
			n0 := v38
			n1 := v47
			n2 := v54
			n3 := v62
			n4 := v69
			n5 := v73
			n6 := v77
			n7 := v80
			n8 := v83
			n9 := v86
			n10 := v89
			v0 = n0
			v28 = n1
			v22 = n2
			v16 = n3
			v10 = n4
			v5 = n5
			v74 = n6
			v78 = n7
			v81 = n8
			v84 = n9
			v87 = n10
		}
	}
	vals[0] = v0
	vals[28] = v28
	vals[22] = v22
	vals[16] = v16
	vals[10] = v10
	vals[5] = v5
	vals[74] = v74
	vals[78] = v78
	vals[81] = v81
	vals[84] = v84
	vals[87] = v87
	var v6 uint64
	if v5 == 0x0 {
		v6 = 1
	}
	vals[6] = v6
	var v12 uint64
	if v10 == 0x0 {
		v12 = 1
	}
	vals[12] = v12
	var v18 uint64
	if v16 == 0x0 {
		v18 = 1
	}
	vals[18] = v18
	var v24 uint64
	if v22 == 0x0 {
		v24 = 1
	}
	vals[24] = v24
	var v30 uint64
	if v28 == 0x0 {
		v30 = 1
	}
	vals[30] = v30
	var v32 uint64
	if v30 != 0 {
		v32 = 0x6
	} else {
		v32 = 0x3
	}
	vals[32] = v32
	var v40 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v40 = m0[addr] & 0xffff
	}
	vals[40] = v40
	v42 := (v40 - 0x1) & 0xffff
	vals[42] = v42
	var v43 uint64
	if v28 != 0x0 {
		v43 = 1
	}
	vals[43] = v43
	v45 := (v28 - 0x1) & 0xffff
	vals[45] = v45
	var v50 uint64
	if v22 != 0x0 {
		v50 = 1
	}
	vals[50] = v50
	v52 := (v22 - 0x1) & 0xf
	vals[52] = v52
	var v53 uint64
	if v50 != 0 {
		v53 = v52
	} else {
		v53 = v22
	}
	vals[53] = v53
	var v58 uint64
	if v16 != 0x0 {
		v58 = 1
	}
	vals[58] = v58
	v60 := (v16 - 0x1) & 0x1f
	vals[60] = v60
	var v61 uint64
	if v58 != 0 {
		v61 = v60
	} else {
		v61 = v16
	}
	vals[61] = v61
	var v65 uint64
	if v10 != 0x0 {
		v65 = 1
	}
	vals[65] = v65
	v67 := (v10 - 0x1) & 0x3f
	vals[67] = v67
	var v68 uint64
	if v65 != 0 {
		v68 = v67
	} else {
		v68 = v10
	}
	vals[68] = v68
	var v70 uint64
	if v5 != 0x0 {
		v70 = 1
	}
	vals[70] = v70
	v71 := (v5 - 0x1) & 0x7
	vals[71] = v71
	var v72 uint64
	if v70 != 0 {
		v72 = v71
	} else {
		v72 = v5
	}
	vals[72] = v72
	v76 := (v74 + 0x1) & 0xffffff
	vals[76] = v76
	v79 := (v78 + 0x1) & 0xffffff
	vals[79] = v79
	v82 := (v81 + 0x1) & 0xffffff
	vals[82] = v82
	v85 := (v84 + 0x1) & 0xffffff
	vals[85] = v85
	v88 := (v87 + 0x1) & 0xffffff
	vals[88] = v88
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x0
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x0
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x0
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x0
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x0
		vals[37] = 0x0
		vals[38] = 0x1
		vals[44] = 0x0
		v46 := v28
		vals[46] = v46
		v47 := v42
		vals[47] = v47
		vals[48] = 0x0
		v54 := v53
		vals[54] = v54
		vals[55] = 0x0
		vals[56] = 0x0
		v62 := v61
		vals[62] = v62
		vals[63] = 0x0
		v69 := v68
		vals[69] = v69
		vals[73] = 0x3
		v77 := v74
		vals[77] = v77
		v80 := v78
		vals[80] = v80
		v83 := v82
		vals[83] = v83
		v86 := v84
		vals[86] = v86
		v89 := v88
		vals[89] = v89
		vals[90] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x1
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x1
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x1
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x1
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x1
		vals[34] = 0x1
		vals[35] = 0x1
		vals[36] = 0x1
		v37 := v8
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		vals[44] = 0x0
		v46 := v28
		vals[46] = v46
		v47 := v46
		vals[47] = v47
		vals[48] = 0x0
		v54 := v53
		vals[54] = v54
		vals[55] = 0x0
		vals[56] = 0x0
		v62 := v61
		vals[62] = v62
		v63 := v6
		vals[63] = v63
		var v69 uint64
		if v63 != 0 {
			v69 = 0x27
		} else {
			v69 = v68
		}
		vals[69] = v69
		v73 := v72
		vals[73] = v73
		v77 := v74
		vals[77] = v77
		v80 := v78
		vals[80] = v80
		v83 := v81
		vals[83] = v83
		var v86 uint64
		if v63 != 0 {
			v86 = v85
		} else {
			v86 = v84
		}
		vals[86] = v86
		v89 := v87
		vals[89] = v89
		vals[90] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x2
		}
		vals[8] = v8
		vals[9] = 0x1
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x2
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x2
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x2
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x2
		vals[34] = 0x2
		vals[35] = 0x2
		v36 := v14
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		vals[44] = 0x0
		v46 := v28
		vals[46] = v46
		v47 := v46
		vals[47] = v47
		vals[48] = 0x0
		v54 := v53
		vals[54] = v54
		v55 := v12
		vals[55] = v55
		v56 := v55
		vals[56] = v56
		var v62 uint64
		if v56 != 0 {
			v62 = 0x17
		} else {
			v62 = v61
		}
		vals[62] = v62
		vals[63] = 0x0
		v69 := v68
		vals[69] = v69
		v73 := v72
		vals[73] = v73
		v77 := v74
		vals[77] = v77
		var v80 uint64
		if v56 != 0 {
			v80 = v79
		} else {
			v80 = v78
		}
		vals[80] = v80
		v83 := v81
		vals[83] = v83
		v86 := v84
		vals[86] = v86
		v89 := v87
		vals[89] = v89
		vals[90] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x3
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x3
		}
		vals[14] = v14
		vals[15] = 0x1
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x3
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x3
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x3
		vals[34] = 0x3
		v35 := v20
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		vals[44] = 0x0
		v46 := v28
		vals[46] = v46
		v47 := v46
		vals[47] = v47
		v48 := v18
		vals[48] = v48
		var v54 uint64
		if v48 != 0 {
			v54 = 0x9
		} else {
			v54 = v53
		}
		vals[54] = v54
		vals[55] = 0x0
		vals[56] = 0x0
		v62 := v61
		vals[62] = v62
		vals[63] = 0x0
		v69 := v68
		vals[69] = v69
		v73 := v72
		vals[73] = v73
		var v77 uint64
		if v48 != 0 {
			v77 = v76
		} else {
			v77 = v74
		}
		vals[77] = v77
		v80 := v78
		vals[80] = v80
		v83 := v81
		vals[83] = v83
		v86 := v84
		vals[86] = v86
		v89 := v87
		vals[89] = v89
		vals[90] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x4
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x4
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x4
		}
		vals[20] = v20
		vals[21] = 0x1
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x4
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x4
		v34 := v26
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		vals[44] = 0x0
		v46 := v28
		vals[46] = v46
		v47 := v46
		vals[47] = v47
		vals[48] = 0x0
		v54 := v53
		vals[54] = v54
		vals[55] = 0x0
		vals[56] = 0x0
		v62 := v61
		vals[62] = v62
		vals[63] = 0x0
		v69 := v68
		vals[69] = v69
		v73 := v72
		vals[73] = v73
		v77 := v74
		vals[77] = v77
		v80 := v78
		vals[80] = v80
		v83 := v81
		vals[83] = v83
		v86 := v84
		vals[86] = v86
		v89 := v87
		vals[89] = v89
		vals[90] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x5
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x5
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x5
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x5
		}
		vals[26] = v26
		vals[27] = 0x1
		v33 := v32
		vals[33] = v33
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
		v44 := v43
		vals[44] = v44
		var v46 uint64
		if v44 != 0 {
			v46 = v45
		} else {
			v46 = v28
		}
		vals[46] = v46
		v47 := v46
		vals[47] = v47
		vals[48] = 0x0
		v54 := v53
		vals[54] = v54
		vals[55] = 0x0
		v56 := v44
		vals[56] = v56
		var v62 uint64
		if v56 != 0 {
			v62 = 0x17
		} else {
			v62 = v61
		}
		vals[62] = v62
		vals[63] = 0x0
		v69 := v68
		vals[69] = v69
		v73 := v72
		vals[73] = v73
		v77 := v74
		vals[77] = v77
		var v80 uint64
		if v56 != 0 {
			v80 = v79
		} else {
			v80 = v78
		}
		vals[80] = v80
		v83 := v81
		vals[83] = v83
		v86 := v84
		vals[86] = v86
		v89 := v87
		vals[89] = v89
		vals[90] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = 0x6
		}
		vals[8] = v8
		vals[9] = 0x0
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = 0x6
		}
		vals[14] = v14
		vals[15] = 0x0
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = 0x6
		}
		vals[20] = v20
		vals[21] = 0x0
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = 0x6
		}
		vals[26] = v26
		vals[27] = 0x0
		vals[33] = 0x6
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x6
		vals[37] = 0x6
		vals[38] = 0x6
		vals[44] = 0x0
		v46 := v28
		vals[46] = v46
		v47 := v46
		vals[47] = v47
		vals[48] = 0x0
		v54 := v53
		vals[54] = v54
		vals[55] = 0x0
		vals[56] = 0x0
		v62 := v61
		vals[62] = v62
		vals[63] = 0x0
		v69 := v68
		vals[69] = v69
		v73 := v72
		vals[73] = v73
		v77 := v74
		vals[77] = v77
		v80 := v78
		vals[80] = v80
		v83 := v81
		vals[83] = v83
		v86 := v84
		vals[86] = v86
		v89 := v87
		vals[89] = v89
		vals[90] = 0x1
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
		var v8 uint64
		if v6 != 0 {
			v8 = 0x2
		} else {
			v8 = v0
		}
		vals[8] = v8
		var v9 uint64
		if v0 == 0x2 {
			v9 = 1
		}
		vals[9] = v9
		var v14 uint64
		if v12 != 0 {
			v14 = 0x3
		} else {
			v14 = v0
		}
		vals[14] = v14
		var v15 uint64
		if v0 == 0x3 {
			v15 = 1
		}
		vals[15] = v15
		var v20 uint64
		if v18 != 0 {
			v20 = 0x4
		} else {
			v20 = v0
		}
		vals[20] = v20
		var v21 uint64
		if v0 == 0x4 {
			v21 = 1
		}
		vals[21] = v21
		var v26 uint64
		if v24 != 0 {
			v26 = 0x5
		} else {
			v26 = v0
		}
		vals[26] = v26
		var v27 uint64
		if v0 == 0x5 {
			v27 = 1
		}
		vals[27] = v27
		var v33 uint64
		if v27 != 0 {
			v33 = v32
		} else {
			v33 = v0
		}
		vals[33] = v33
		var v34 uint64
		if v21 != 0 {
			v34 = v26
		} else {
			v34 = v33
		}
		vals[34] = v34
		var v35 uint64
		if v15 != 0 {
			v35 = v20
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v9 != 0 {
			v36 = v14
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v37 uint64
		if v4 != 0 {
			v37 = v8
		} else {
			v37 = v36
		}
		vals[37] = v37
		var v38 uint64
		if v2 != 0 {
			v38 = 0x1
		} else {
			v38 = v37
		}
		vals[38] = v38
		v44 := v27 & v43
		vals[44] = v44
		var v46 uint64
		if v44 != 0 {
			v46 = v45
		} else {
			v46 = v28
		}
		vals[46] = v46
		var v47 uint64
		if v2 != 0 {
			v47 = v42
		} else {
			v47 = v46
		}
		vals[47] = v47
		v48 := v15 & v18
		vals[48] = v48
		var v54 uint64
		if v48 != 0 {
			v54 = 0x9
		} else {
			v54 = v53
		}
		vals[54] = v54
		v55 := v9 & v12
		vals[55] = v55
		v56 := (v55 | v44)
		vals[56] = v56
		var v62 uint64
		if v56 != 0 {
			v62 = 0x17
		} else {
			v62 = v61
		}
		vals[62] = v62
		v63 := v4 & v6
		vals[63] = v63
		var v69 uint64
		if v63 != 0 {
			v69 = 0x27
		} else {
			v69 = v68
		}
		vals[69] = v69
		var v73 uint64
		if v2 != 0 {
			v73 = 0x3
		} else {
			v73 = v72
		}
		vals[73] = v73
		var v77 uint64
		if v48 != 0 {
			v77 = v76
		} else {
			v77 = v74
		}
		vals[77] = v77
		var v80 uint64
		if v56 != 0 {
			v80 = v79
		} else {
			v80 = v78
		}
		vals[80] = v80
		var v83 uint64
		if v2 != 0 {
			v83 = v82
		} else {
			v83 = v81
		}
		vals[83] = v83
		var v86 uint64
		if v63 != 0 {
			v86 = v85
		} else {
			v86 = v84
		}
		vals[86] = v86
		var v89 uint64
		if v2 != 0 {
			v89 = v88
		} else {
			v89 = v87
		}
		vals[89] = v89
		var v90 uint64
		if v0 == 0x6 {
			v90 = 1
		}
		vals[90] = v90
	}
	done := vals[90] != 0
	l0 := vals[38] & 0x7
	l1 := vals[47] & 0xffff
	l2 := vals[54] & 0xf
	l3 := vals[62] & 0x1f
	l4 := vals[69] & 0x3f
	l5 := vals[73] & 0x7
	l6 := vals[77] & 0xffffff
	l7 := vals[80] & 0xffffff
	l8 := vals[83] & 0xffffff
	l9 := vals[86] & 0xffffff
	l10 := vals[89] & 0xffffff
	vals[0] = l0
	vals[28] = l1
	vals[22] = l2
	vals[16] = l3
	vals[10] = l4
	vals[5] = l5
	vals[74] = l6
	vals[78] = l7
	vals[81] = l8
	vals[84] = l9
	vals[87] = l10
	return cycles + 1, done
}

func step_aes_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[110]
	m0 := mems[0]
	v0 := vals[0]
	v13 := vals[13]
	v33 := vals[33]
	v35 := vals[35]
	v39 := vals[39]
	v43 := vals[43]
	v44 := vals[44]
	v49 := vals[49]
	v52 := vals[52]
	v55 := vals[55]
	v58 := vals[58]
	v61 := vals[61]
	v62 := vals[62]
	v66 := vals[66]
	v69 := vals[69]
	v70 := vals[70]
	v73 := vals[73]
	v76 := vals[76]
	v81 := vals[81]
	v86 := vals[86]
	v91 := vals[91]
	v96 := vals[96]
	v100 := vals[100]
	v105 := vals[105]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v25 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0xffff
			}
			v27 := (v25 - 0x1) & 0xffff
			v53 := (v52 + v13) & 0xffffff
			v56 := (v55 + v27) & 0xffffff
			v59 := (v58 + 0x1) & 0xffffff
			v71 := (v70 + 0x3) & 0xffffff
			v74 := (v73 + 0x1) & 0xffffff
			v108 := (v105 + 0x1) & 0xffffff
			v32 := v27
			v38 := v35
			v42 := v39
			v48 := v44
			v51 := v49
			v54 := v53
			v57 := v56
			v60 := v59
			v65 := v62
			v68 := v66
			v72 := v71
			v75 := v74
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v96
			v104 := v100
			v109 := v108
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x1
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x1:
			v64 := (v62 + 0x27) & 0xffffff
			v67 := (v66 + 0x1) & 0xffffff
			v103 := (v100 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v38 := v35
			v42 := v39
			v48 := v44
			v51 := v49
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v64
			v68 := v67
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v96
			v104 := v103
			v109 := v105
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x2
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x2:
			v47 := (v44 + 0x17) & 0xffffff
			v50 := (v49 + 0x1) & 0xffffff
			v98 := (v96 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v38 := v35
			v42 := v39
			v48 := v47
			v51 := v50
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v91
			v99 := v98
			v104 := v100
			v109 := v105
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x3
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x3:
			v37 := (v35 + 0x9) & 0xffffff
			v41 := (v39 + 0x1) & 0xffffff
			v94 := (v91 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v38 := v37
			v42 := v41
			v48 := v44
			v51 := v49
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v86
			v95 := v94
			v99 := v96
			v104 := v100
			v109 := v105
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x4
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x4:
			v89 := (v86 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v38 := v35
			v42 := v39
			v48 := v44
			v51 := v49
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			v80 := v76
			v85 := v81
			v90 := v89
			v95 := v91
			v99 := v96
			v104 := v100
			v109 := v105
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = 0x5
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x5:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x6
			} else {
				v17 = 0x3
			}
			var v28 uint64
			if v13 != 0x0 {
				v28 = 1
			}
			v30 := (v13 - 0x1) & 0xffff
			v47 := (v44 + 0x17) & 0xffffff
			v50 := (v49 + 0x1) & 0xffffff
			v79 := (v76 + 0x1) & 0xffffff
			v84 := (v81 + 0x1) & 0xffffff
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v29 := v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v38 := v35
			v42 := v39
			v45 := v29
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			v54 := v52
			v57 := v55
			v60 := v58
			v65 := v62
			v68 := v66
			v72 := v70
			v75 := v73
			var v77 uint64
			if v23 == 0x3 {
				v77 = 1
			}
			v78 := v77
			var v80 uint64
			if v78 != 0 {
				v80 = v79
			} else {
				v80 = v76
			}
			var v82 uint64
			if v23 == 0x6 {
				v82 = 1
			}
			v83 := v82
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v81
			}
			v90 := v86
			v95 := v91
			v99 := v96
			v104 := v100
			v109 := v105
			n0 := v23
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = n0
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		case 0x6:
			break loop
		default:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x6
			} else {
				v17 = 0x3
			}
			var v25 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0xffff
			}
			v27 := (v25 - 0x1) & 0xffff
			var v28 uint64
			if v13 != 0x0 {
				v28 = 1
			}
			v30 := (v13 - 0x1) & 0xffff
			v37 := (v35 + 0x9) & 0xffffff
			v41 := (v39 + 0x1) & 0xffffff
			v47 := (v44 + 0x17) & 0xffffff
			v50 := (v49 + 0x1) & 0xffffff
			v53 := (v52 + v13) & 0xffffff
			v56 := (v55 + v27) & 0xffffff
			v59 := (v58 + 0x1) & 0xffffff
			v64 := (v62 + 0x27) & 0xffffff
			v67 := (v66 + 0x1) & 0xffffff
			v71 := (v70 + 0x3) & 0xffffff
			v74 := (v73 + 0x1) & 0xffffff
			v79 := (v76 + 0x1) & 0xffffff
			v84 := (v81 + 0x1) & 0xffffff
			v89 := (v86 + 0x1) & 0xffffff
			v94 := (v91 + 0x1) & 0xffffff
			v98 := (v96 + 0x1) & 0xffffff
			v103 := (v100 + 0x1) & 0xffffff
			v108 := (v105 + 0x1) & 0xffffff
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
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v18 uint64
			if v12 != 0 {
				v18 = v17
			} else {
				v18 = v0
			}
			var v19 uint64
			if v10 != 0 {
				v19 = 0x5
			} else {
				v19 = v18
			}
			var v20 uint64
			if v8 != 0 {
				v20 = 0x4
			} else {
				v20 = v19
			}
			var v21 uint64
			if v6 != 0 {
				v21 = 0x3
			} else {
				v21 = v20
			}
			var v22 uint64
			if v4 != 0 {
				v22 = 0x2
			} else {
				v22 = v21
			}
			var v23 uint64
			if v2 != 0 {
				v23 = 0x1
			} else {
				v23 = v22
			}
			v29 := v12 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			var v32 uint64
			if v2 != 0 {
				v32 = v27
			} else {
				v32 = v31
			}
			var v38 uint64
			if v8 != 0 {
				v38 = v37
			} else {
				v38 = v35
			}
			var v42 uint64
			if v8 != 0 {
				v42 = v41
			} else {
				v42 = v39
			}
			v45 := (v6 | v29)
			var v48 uint64
			if v45 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v51 uint64
			if v45 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			var v54 uint64
			if v2 != 0 {
				v54 = v53
			} else {
				v54 = v52
			}
			var v57 uint64
			if v2 != 0 {
				v57 = v56
			} else {
				v57 = v55
			}
			var v60 uint64
			if v2 != 0 {
				v60 = v59
			} else {
				v60 = v58
			}
			var v65 uint64
			if v4 != 0 {
				v65 = v64
			} else {
				v65 = v62
			}
			var v68 uint64
			if v4 != 0 {
				v68 = v67
			} else {
				v68 = v66
			}
			var v72 uint64
			if v2 != 0 {
				v72 = v71
			} else {
				v72 = v70
			}
			var v75 uint64
			if v2 != 0 {
				v75 = v74
			} else {
				v75 = v73
			}
			var v77 uint64
			if v23 == 0x3 {
				v77 = 1
			}
			v78 := v12 & v77
			var v80 uint64
			if v78 != 0 {
				v80 = v79
			} else {
				v80 = v76
			}
			var v82 uint64
			if v23 == 0x6 {
				v82 = 1
			}
			v83 := v12 & v82
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v81
			}
			var v87 uint64
			if v23 == 0x5 {
				v87 = 1
			}
			v88 := v10 & v87
			var v90 uint64
			if v88 != 0 {
				v90 = v89
			} else {
				v90 = v86
			}
			var v92 uint64
			if v23 == 0x4 {
				v92 = 1
			}
			v93 := v8 & v92
			var v95 uint64
			if v93 != 0 {
				v95 = v94
			} else {
				v95 = v91
			}
			v97 := v6 & v77
			var v99 uint64
			if v97 != 0 {
				v99 = v98
			} else {
				v99 = v96
			}
			var v101 uint64
			if v23 == 0x2 {
				v101 = 1
			}
			v102 := v4 & v101
			var v104 uint64
			if v102 != 0 {
				v104 = v103
			} else {
				v104 = v100
			}
			var v106 uint64
			if v23 == 0x1 {
				v106 = 1
			}
			v107 := v2 & v106
			var v109 uint64
			if v107 != 0 {
				v109 = v108
			} else {
				v109 = v105
			}
			var v110 uint64
			if v0 == 0x6 {
				v110 = 1
			}
			if v110 != 0 {
				break loop
			}
			n0 := v23
			n1 := v32
			n3 := v38
			n4 := v42
			n6 := v48
			n7 := v51
			n8 := v54
			n9 := v57
			n10 := v60
			n12 := v65
			n13 := v68
			n15 := v72
			n16 := v75
			n17 := v80
			n18 := v85
			n19 := v90
			n20 := v95
			n21 := v99
			n22 := v104
			n23 := v109
			v0 = n0
			v13 = n1
			v33 = 0x0
			v35 = n3
			v39 = n4
			v43 = 0x0
			v44 = n6
			v49 = n7
			v52 = n8
			v55 = n9
			v58 = n10
			v61 = 0x0
			v62 = n12
			v66 = n13
			v69 = 0x0
			v70 = n15
			v73 = n16
			v76 = n17
			v81 = n18
			v86 = n19
			v91 = n20
			v96 = n21
			v100 = n22
			v105 = n23
		}
	}
	vals[0] = v0
	vals[13] = v13
	vals[33] = v33
	vals[35] = v35
	vals[39] = v39
	vals[43] = v43
	vals[44] = v44
	vals[49] = v49
	vals[52] = v52
	vals[55] = v55
	vals[58] = v58
	vals[61] = v61
	vals[62] = v62
	vals[66] = v66
	vals[69] = v69
	vals[70] = v70
	vals[73] = v73
	vals[76] = v76
	vals[81] = v81
	vals[86] = v86
	vals[91] = v91
	vals[96] = v96
	vals[100] = v100
	vals[105] = v105
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v17 uint64
	if v15 != 0 {
		v17 = 0x6
	} else {
		v17 = 0x3
	}
	vals[17] = v17
	var v25 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v25 = m0[addr] & 0xffff
	}
	vals[25] = v25
	v27 := (v25 - 0x1) & 0xffff
	vals[27] = v27
	var v28 uint64
	if v13 != 0x0 {
		v28 = 1
	}
	vals[28] = v28
	v30 := (v13 - 0x1) & 0xffff
	vals[30] = v30
	v37 := (v35 + 0x9) & 0xffffff
	vals[37] = v37
	v41 := (v39 + 0x1) & 0xffffff
	vals[41] = v41
	v47 := (v44 + 0x17) & 0xffffff
	vals[47] = v47
	v50 := (v49 + 0x1) & 0xffffff
	vals[50] = v50
	v53 := (v52 + v13) & 0xffffff
	vals[53] = v53
	v56 := (v55 + v27) & 0xffffff
	vals[56] = v56
	v59 := (v58 + 0x1) & 0xffffff
	vals[59] = v59
	v64 := (v62 + 0x27) & 0xffffff
	vals[64] = v64
	v67 := (v66 + 0x1) & 0xffffff
	vals[67] = v67
	v71 := (v70 + 0x3) & 0xffffff
	vals[71] = v71
	v74 := (v73 + 0x1) & 0xffffff
	vals[74] = v74
	v79 := (v76 + 0x1) & 0xffffff
	vals[79] = v79
	v84 := (v81 + 0x1) & 0xffffff
	vals[84] = v84
	v89 := (v86 + 0x1) & 0xffffff
	vals[89] = v89
	v94 := (v91 + 0x1) & 0xffffff
	vals[94] = v94
	v98 := (v96 + 0x1) & 0xffffff
	vals[98] = v98
	v103 := (v100 + 0x1) & 0xffffff
	vals[103] = v103
	v108 := (v105 + 0x1) & 0xffffff
	vals[108] = v108
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v27
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v53
		vals[54] = v54
		v57 := v56
		vals[57] = v57
		v60 := v59
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v71
		vals[72] = v72
		v75 := v74
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x1
		vals[107] = 0x1
		v109 := v108
		vals[109] = v109
		vals[110] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x1
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x1
		vals[22] = 0x2
		vals[23] = 0x2
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v64
		vals[65] = v65
		v68 := v67
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x1
		vals[102] = 0x1
		v104 := v103
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x2
		vals[19] = 0x2
		vals[20] = 0x2
		vals[21] = 0x3
		vals[22] = 0x3
		vals[23] = 0x3
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x1
		v48 := v47
		vals[48] = v48
		v51 := v50
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x1
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x1
		v99 := v98
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x4
		vals[21] = 0x4
		vals[22] = 0x4
		vals[23] = 0x4
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v37
		vals[38] = v38
		v42 := v41
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x1
		vals[93] = 0x1
		v95 := v94
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		vals[18] = 0x4
		vals[19] = 0x5
		vals[20] = 0x5
		vals[21] = 0x5
		vals[22] = 0x5
		vals[23] = 0x5
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x0
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x1
		vals[88] = 0x1
		v90 := v89
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v23 := v22
		vals[23] = v23
		v29 := v28
		vals[29] = v29
		var v31 uint64
		if v29 != 0 {
			v31 = v30
		} else {
			v31 = v13
		}
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		v45 := v29
		vals[45] = v45
		var v48 uint64
		if v45 != 0 {
			v48 = v47
		} else {
			v48 = v44
		}
		vals[48] = v48
		var v51 uint64
		if v45 != 0 {
			v51 = v50
		} else {
			v51 = v49
		}
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		var v77 uint64
		if v23 == 0x3 {
			v77 = 1
		}
		vals[77] = v77
		v78 := v77
		vals[78] = v78
		var v80 uint64
		if v78 != 0 {
			v80 = v79
		} else {
			v80 = v76
		}
		vals[80] = v80
		var v82 uint64
		if v23 == 0x6 {
			v82 = 1
		}
		vals[82] = v82
		v83 := v82
		vals[83] = v83
		var v85 uint64
		if v83 != 0 {
			v85 = v84
		} else {
			v85 = v81
		}
		vals[85] = v85
		var v87 uint64
		if v23 == 0x5 {
			v87 = 1
		}
		vals[87] = v87
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		var v92 uint64
		if v23 == 0x4 {
			v92 = 1
		}
		vals[92] = v92
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		var v101 uint64
		if v23 == 0x2 {
			v101 = 1
		}
		vals[101] = v101
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		var v106 uint64
		if v23 == 0x1 {
			v106 = 1
		}
		vals[106] = v106
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x6
		vals[19] = 0x6
		vals[20] = 0x6
		vals[21] = 0x6
		vals[22] = 0x6
		vals[23] = 0x6
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v38 := v35
		vals[38] = v38
		v42 := v39
		vals[42] = v42
		vals[45] = 0x0
		v48 := v44
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		v54 := v52
		vals[54] = v54
		v57 := v55
		vals[57] = v57
		v60 := v58
		vals[60] = v60
		v65 := v62
		vals[65] = v65
		v68 := v66
		vals[68] = v68
		v72 := v70
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[77] = 0x0
		vals[78] = 0x0
		v80 := v76
		vals[80] = v80
		vals[82] = 0x1
		vals[83] = 0x0
		v85 := v81
		vals[85] = v85
		vals[87] = 0x0
		vals[88] = 0x0
		v90 := v86
		vals[90] = v90
		vals[92] = 0x0
		vals[93] = 0x0
		v95 := v91
		vals[95] = v95
		vals[97] = 0x0
		v99 := v96
		vals[99] = v99
		vals[101] = 0x0
		vals[102] = 0x0
		v104 := v100
		vals[104] = v104
		vals[106] = 0x0
		vals[107] = 0x0
		v109 := v105
		vals[109] = v109
		vals[110] = 0x1
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
		var v10 uint64
		if v0 == 0x4 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v0 == 0x5 {
			v12 = 1
		}
		vals[12] = v12
		var v18 uint64
		if v12 != 0 {
			v18 = v17
		} else {
			v18 = v0
		}
		vals[18] = v18
		var v19 uint64
		if v10 != 0 {
			v19 = 0x5
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v8 != 0 {
			v20 = 0x4
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v6 != 0 {
			v21 = 0x3
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v4 != 0 {
			v22 = 0x2
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v23 uint64
		if v2 != 0 {
			v23 = 0x1
		} else {
			v23 = v22
		}
		vals[23] = v23
		v29 := v12 & v28
		vals[29] = v29
		var v31 uint64
		if v29 != 0 {
			v31 = v30
		} else {
			v31 = v13
		}
		vals[31] = v31
		var v32 uint64
		if v2 != 0 {
			v32 = v27
		} else {
			v32 = v31
		}
		vals[32] = v32
		var v38 uint64
		if v8 != 0 {
			v38 = v37
		} else {
			v38 = v35
		}
		vals[38] = v38
		var v42 uint64
		if v8 != 0 {
			v42 = v41
		} else {
			v42 = v39
		}
		vals[42] = v42
		v45 := (v6 | v29)
		vals[45] = v45
		var v48 uint64
		if v45 != 0 {
			v48 = v47
		} else {
			v48 = v44
		}
		vals[48] = v48
		var v51 uint64
		if v45 != 0 {
			v51 = v50
		} else {
			v51 = v49
		}
		vals[51] = v51
		var v54 uint64
		if v2 != 0 {
			v54 = v53
		} else {
			v54 = v52
		}
		vals[54] = v54
		var v57 uint64
		if v2 != 0 {
			v57 = v56
		} else {
			v57 = v55
		}
		vals[57] = v57
		var v60 uint64
		if v2 != 0 {
			v60 = v59
		} else {
			v60 = v58
		}
		vals[60] = v60
		var v65 uint64
		if v4 != 0 {
			v65 = v64
		} else {
			v65 = v62
		}
		vals[65] = v65
		var v68 uint64
		if v4 != 0 {
			v68 = v67
		} else {
			v68 = v66
		}
		vals[68] = v68
		var v72 uint64
		if v2 != 0 {
			v72 = v71
		} else {
			v72 = v70
		}
		vals[72] = v72
		var v75 uint64
		if v2 != 0 {
			v75 = v74
		} else {
			v75 = v73
		}
		vals[75] = v75
		var v77 uint64
		if v23 == 0x3 {
			v77 = 1
		}
		vals[77] = v77
		v78 := v12 & v77
		vals[78] = v78
		var v80 uint64
		if v78 != 0 {
			v80 = v79
		} else {
			v80 = v76
		}
		vals[80] = v80
		var v82 uint64
		if v23 == 0x6 {
			v82 = 1
		}
		vals[82] = v82
		v83 := v12 & v82
		vals[83] = v83
		var v85 uint64
		if v83 != 0 {
			v85 = v84
		} else {
			v85 = v81
		}
		vals[85] = v85
		var v87 uint64
		if v23 == 0x5 {
			v87 = 1
		}
		vals[87] = v87
		v88 := v10 & v87
		vals[88] = v88
		var v90 uint64
		if v88 != 0 {
			v90 = v89
		} else {
			v90 = v86
		}
		vals[90] = v90
		var v92 uint64
		if v23 == 0x4 {
			v92 = 1
		}
		vals[92] = v92
		v93 := v8 & v92
		vals[93] = v93
		var v95 uint64
		if v93 != 0 {
			v95 = v94
		} else {
			v95 = v91
		}
		vals[95] = v95
		v97 := v6 & v77
		vals[97] = v97
		var v99 uint64
		if v97 != 0 {
			v99 = v98
		} else {
			v99 = v96
		}
		vals[99] = v99
		var v101 uint64
		if v23 == 0x2 {
			v101 = 1
		}
		vals[101] = v101
		v102 := v4 & v101
		vals[102] = v102
		var v104 uint64
		if v102 != 0 {
			v104 = v103
		} else {
			v104 = v100
		}
		vals[104] = v104
		var v106 uint64
		if v23 == 0x1 {
			v106 = 1
		}
		vals[106] = v106
		v107 := v2 & v106
		vals[107] = v107
		var v109 uint64
		if v107 != 0 {
			v109 = v108
		} else {
			v109 = v105
		}
		vals[109] = v109
		var v110 uint64
		if v0 == 0x6 {
			v110 = 1
		}
		vals[110] = v110
	}
	done := vals[110] != 0
	l0 := vals[23] & 0x7
	l1 := vals[32] & 0xffff
	l2 := vals[34] & 0xffffff
	l3 := vals[38] & 0xffffff
	l4 := vals[42] & 0xffffff
	l5 := vals[34] & 0xffffff
	l6 := vals[48] & 0xffffff
	l7 := vals[51] & 0xffffff
	l8 := vals[54] & 0xffffff
	l9 := vals[57] & 0xffffff
	l10 := vals[60] & 0xffffff
	l11 := vals[34] & 0xffffff
	l12 := vals[65] & 0xffffff
	l13 := vals[68] & 0xffffff
	l14 := vals[34] & 0xffffff
	l15 := vals[72] & 0xffffff
	l16 := vals[75] & 0xffffff
	l17 := vals[80] & 0xffffff
	l18 := vals[85] & 0xffffff
	l19 := vals[90] & 0xffffff
	l20 := vals[95] & 0xffffff
	l21 := vals[99] & 0xffffff
	l22 := vals[104] & 0xffffff
	l23 := vals[109] & 0xffffff
	vals[0] = l0
	vals[13] = l1
	vals[33] = l2
	vals[35] = l3
	vals[39] = l4
	vals[43] = l5
	vals[44] = l6
	vals[49] = l7
	vals[52] = l8
	vals[55] = l9
	vals[58] = l10
	vals[61] = l11
	vals[62] = l12
	vals[66] = l13
	vals[69] = l14
	vals[70] = l15
	vals[73] = l16
	vals[76] = l17
	vals[81] = l18
	vals[86] = l19
	vals[91] = l20
	vals[96] = l21
	vals[100] = l22
	vals[105] = l23
	return cycles + 1, done
}

func step_aes_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[67]
	m0 := mems[0]
	v0 := vals[0]
	v13 := vals[13]
	v33 := vals[33]
	v37 := vals[37]
	v41 := vals[41]
	v46 := vals[46]
	v49 := vals[49]
	v52 := vals[52]
	v57 := vals[57]
	v62 := vals[62]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v25 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0xffff
			}
			v27 := (v25 - 0x1) & 0xffff
			v50 := (v49 + v27) & 0xffffff
			v32 := v27
			v36 := v33
			v40 := v37
			v45 := v41
			v48 := v46
			v51 := v50
			v56 := v52
			v61 := v57
			v66 := v62
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x1
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x1:
			v31 := v13
			v32 := v31
			v36 := v33
			v40 := v37
			v45 := v41
			v48 := v46
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x2
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x2:
			v44 := (v41 + 0x17) & 0xffffff
			v47 := (v46 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v36 := v33
			v40 := v37
			v45 := v44
			v48 := v47
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x3
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x3:
			v35 := (v33 + 0x9) & 0xffffff
			v39 := (v37 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v36 := v35
			v40 := v39
			v45 := v41
			v48 := v46
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v65
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x4
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x4:
			v60 := (v57 + 0x1) & 0xffffff
			v31 := v13
			v32 := v31
			v36 := v33
			v40 := v37
			v45 := v41
			v48 := v46
			v51 := v49
			v56 := v52
			v61 := v60
			v66 := v62
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = 0x5
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x5:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x6
			} else {
				v17 = 0x3
			}
			var v28 uint64
			if v13 != 0x0 {
				v28 = 1
			}
			v30 := (v13 - 0x1) & 0xffff
			v44 := (v41 + 0x17) & 0xffffff
			v47 := (v46 + 0x1) & 0xffffff
			v55 := (v52 + 0x1) & 0xffffff
			v18 := v17
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v29 := v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			v32 := v31
			v36 := v33
			v40 := v37
			v42 := v29
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			v51 := v49
			var v53 uint64
			if v23 == 0x3 {
				v53 = 1
			}
			v54 := v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			v61 := v57
			v66 := v62
			n0 := v23
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = n0
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		case 0x6:
			break loop
		default:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x6
			} else {
				v17 = 0x3
			}
			var v25 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0xffff
			}
			v27 := (v25 - 0x1) & 0xffff
			var v28 uint64
			if v13 != 0x0 {
				v28 = 1
			}
			v30 := (v13 - 0x1) & 0xffff
			v35 := (v33 + 0x9) & 0xffffff
			v39 := (v37 + 0x1) & 0xffffff
			v44 := (v41 + 0x17) & 0xffffff
			v47 := (v46 + 0x1) & 0xffffff
			v50 := (v49 + v27) & 0xffffff
			v55 := (v52 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
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
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v18 uint64
			if v12 != 0 {
				v18 = v17
			} else {
				v18 = v0
			}
			var v19 uint64
			if v10 != 0 {
				v19 = 0x5
			} else {
				v19 = v18
			}
			var v20 uint64
			if v8 != 0 {
				v20 = 0x4
			} else {
				v20 = v19
			}
			var v21 uint64
			if v6 != 0 {
				v21 = 0x3
			} else {
				v21 = v20
			}
			var v22 uint64
			if v4 != 0 {
				v22 = 0x2
			} else {
				v22 = v21
			}
			var v23 uint64
			if v2 != 0 {
				v23 = 0x1
			} else {
				v23 = v22
			}
			v29 := v12 & v28
			var v31 uint64
			if v29 != 0 {
				v31 = v30
			} else {
				v31 = v13
			}
			var v32 uint64
			if v2 != 0 {
				v32 = v27
			} else {
				v32 = v31
			}
			var v36 uint64
			if v8 != 0 {
				v36 = v35
			} else {
				v36 = v33
			}
			var v40 uint64
			if v8 != 0 {
				v40 = v39
			} else {
				v40 = v37
			}
			v42 := (v6 | v29)
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v41
			}
			var v48 uint64
			if v42 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			var v51 uint64
			if v2 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			var v53 uint64
			if v23 == 0x3 {
				v53 = 1
			}
			v54 := v12 & v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v23 == 0x5 {
				v58 = 1
			}
			v59 := v10 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v23 == 0x4 {
				v63 = 1
			}
			v64 := v8 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v67 uint64
			if v0 == 0x6 {
				v67 = 1
			}
			if v67 != 0 {
				break loop
			}
			n0 := v23
			n1 := v32
			n2 := v36
			n3 := v40
			n4 := v45
			n5 := v48
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			v0 = n0
			v13 = n1
			v33 = n2
			v37 = n3
			v41 = n4
			v46 = n5
			v49 = n6
			v52 = n7
			v57 = n8
			v62 = n9
		}
	}
	vals[0] = v0
	vals[13] = v13
	vals[33] = v33
	vals[37] = v37
	vals[41] = v41
	vals[46] = v46
	vals[49] = v49
	vals[52] = v52
	vals[57] = v57
	vals[62] = v62
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v17 uint64
	if v15 != 0 {
		v17 = 0x6
	} else {
		v17 = 0x3
	}
	vals[17] = v17
	var v25 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v25 = m0[addr] & 0xffff
	}
	vals[25] = v25
	v27 := (v25 - 0x1) & 0xffff
	vals[27] = v27
	var v28 uint64
	if v13 != 0x0 {
		v28 = 1
	}
	vals[28] = v28
	v30 := (v13 - 0x1) & 0xffff
	vals[30] = v30
	v35 := (v33 + 0x9) & 0xffffff
	vals[35] = v35
	v39 := (v37 + 0x1) & 0xffffff
	vals[39] = v39
	v44 := (v41 + 0x17) & 0xffffff
	vals[44] = v44
	v47 := (v46 + 0x1) & 0xffffff
	vals[47] = v47
	v50 := (v49 + v27) & 0xffffff
	vals[50] = v50
	v55 := (v52 + 0x1) & 0xffffff
	vals[55] = v55
	v60 := (v57 + 0x1) & 0xffffff
	vals[60] = v60
	v65 := (v62 + 0x1) & 0xffffff
	vals[65] = v65
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x0
		vals[23] = 0x1
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v27
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v50
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x1
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x1
		vals[22] = 0x2
		vals[23] = 0x2
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x2
		vals[19] = 0x2
		vals[20] = 0x2
		vals[21] = 0x3
		vals[22] = 0x3
		vals[23] = 0x3
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x1
		v45 := v44
		vals[45] = v45
		v48 := v47
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x1
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x4
		vals[21] = 0x4
		vals[22] = 0x4
		vals[23] = 0x4
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v35
		vals[36] = v36
		v40 := v39
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x1
		vals[64] = 0x1
		v66 := v65
		vals[66] = v66
		vals[67] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		vals[18] = 0x4
		vals[19] = 0x5
		vals[20] = 0x5
		vals[21] = 0x5
		vals[22] = 0x5
		vals[23] = 0x5
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x1
		vals[59] = 0x1
		v61 := v60
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v23 := v22
		vals[23] = v23
		v29 := v28
		vals[29] = v29
		var v31 uint64
		if v29 != 0 {
			v31 = v30
		} else {
			v31 = v13
		}
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		v42 := v29
		vals[42] = v42
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v41
		}
		vals[45] = v45
		var v48 uint64
		if v42 != 0 {
			v48 = v47
		} else {
			v48 = v46
		}
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		var v53 uint64
		if v23 == 0x3 {
			v53 = 1
		}
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		var v56 uint64
		if v54 != 0 {
			v56 = v55
		} else {
			v56 = v52
		}
		vals[56] = v56
		var v58 uint64
		if v23 == 0x5 {
			v58 = 1
		}
		vals[58] = v58
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		var v63 uint64
		if v23 == 0x4 {
			v63 = 1
		}
		vals[63] = v63
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[18] = 0x6
		vals[19] = 0x6
		vals[20] = 0x6
		vals[21] = 0x6
		vals[22] = 0x6
		vals[23] = 0x6
		vals[29] = 0x0
		v31 := v13
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v40 := v37
		vals[40] = v40
		vals[42] = 0x0
		v45 := v41
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[67] = 0x1
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
		var v10 uint64
		if v0 == 0x4 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v0 == 0x5 {
			v12 = 1
		}
		vals[12] = v12
		var v18 uint64
		if v12 != 0 {
			v18 = v17
		} else {
			v18 = v0
		}
		vals[18] = v18
		var v19 uint64
		if v10 != 0 {
			v19 = 0x5
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v8 != 0 {
			v20 = 0x4
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v6 != 0 {
			v21 = 0x3
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v4 != 0 {
			v22 = 0x2
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v23 uint64
		if v2 != 0 {
			v23 = 0x1
		} else {
			v23 = v22
		}
		vals[23] = v23
		v29 := v12 & v28
		vals[29] = v29
		var v31 uint64
		if v29 != 0 {
			v31 = v30
		} else {
			v31 = v13
		}
		vals[31] = v31
		var v32 uint64
		if v2 != 0 {
			v32 = v27
		} else {
			v32 = v31
		}
		vals[32] = v32
		var v36 uint64
		if v8 != 0 {
			v36 = v35
		} else {
			v36 = v33
		}
		vals[36] = v36
		var v40 uint64
		if v8 != 0 {
			v40 = v39
		} else {
			v40 = v37
		}
		vals[40] = v40
		v42 := (v6 | v29)
		vals[42] = v42
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v41
		}
		vals[45] = v45
		var v48 uint64
		if v42 != 0 {
			v48 = v47
		} else {
			v48 = v46
		}
		vals[48] = v48
		var v51 uint64
		if v2 != 0 {
			v51 = v50
		} else {
			v51 = v49
		}
		vals[51] = v51
		var v53 uint64
		if v23 == 0x3 {
			v53 = 1
		}
		vals[53] = v53
		v54 := v12 & v53
		vals[54] = v54
		var v56 uint64
		if v54 != 0 {
			v56 = v55
		} else {
			v56 = v52
		}
		vals[56] = v56
		var v58 uint64
		if v23 == 0x5 {
			v58 = 1
		}
		vals[58] = v58
		v59 := v10 & v58
		vals[59] = v59
		var v61 uint64
		if v59 != 0 {
			v61 = v60
		} else {
			v61 = v57
		}
		vals[61] = v61
		var v63 uint64
		if v23 == 0x4 {
			v63 = 1
		}
		vals[63] = v63
		v64 := v8 & v63
		vals[64] = v64
		var v66 uint64
		if v64 != 0 {
			v66 = v65
		} else {
			v66 = v62
		}
		vals[66] = v66
		var v67 uint64
		if v0 == 0x6 {
			v67 = 1
		}
		vals[67] = v67
	}
	done := vals[67] != 0
	l0 := vals[23] & 0x7
	l1 := vals[32] & 0xffff
	l2 := vals[36] & 0xffffff
	l3 := vals[40] & 0xffffff
	l4 := vals[45] & 0xffffff
	l5 := vals[48] & 0xffffff
	l6 := vals[51] & 0xffffff
	l7 := vals[56] & 0xffffff
	l8 := vals[61] & 0xffffff
	l9 := vals[66] & 0xffffff
	vals[0] = l0
	vals[13] = l1
	vals[33] = l2
	vals[37] = l3
	vals[41] = l4
	vals[46] = l5
	vals[49] = l6
	vals[52] = l7
	vals[57] = l8
	vals[62] = l9
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("c1cfd0a9f9e3874bf7607146f4d35f5f95c95aee116e96996a5a694f48c3147d", "aes", step_aes)
	rtl.RegisterNative("b65aa6345056b0f2ad09373af2a765998a422edd7d1412b125ce3d568df52287", "aes_ins", step_aes_ins)
	rtl.RegisterNative("8ae77398c506c97b5c505003997181f466373b6f869120551979a74ac541b759", "aes_pruned", step_aes_pruned)
	rtl.RegisterNative("b5b06f6b869625a064ec0fcd8509a6285d5ce2dc84a5ac809db226620acea32b", "aes_cone", step_aes_cone)
	rtl.RegisterNative("22f29b2846a49eaca86ca01e88524a0044aa72e94d1bcc840c3a2b5f9856d219", "aes_slice_all", step_aes_slice_all)
	rtl.RegisterNative("a276e22e970259a3da68a3d092bfa716d99fc3af004f0f8a9e536dacd8de8dcb", "aes_slice_t42", step_aes_slice_t42)
}
