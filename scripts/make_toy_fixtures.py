#!/usr/bin/env python3
"""Regenerate data/toy/fixtures.json for the mock backend.

The extraction responses quote key sentences of the judged-relevant
documents verbatim, addressed by their position in the BM25 first pass, in
the same answer layout the one-shot prompt teaches. Rerun this script after
changing the toy corpus, the queries, the tokenizer, or the prompt
templates; everything it writes is derived from those.

Usage: python scripts/make_toy_fixtures.py
"""

import json
import sys
from pathlib import Path

from csqe.corpus import parse_jsonl_corpus, parse_queries_tsv, truncate_whitespace_tokens
from csqe.evaluation import parse_qrels
from csqe.expansion import (
    DEFAULT_DOC_TOKEN_BUDGET,
    DEFAULT_K_FEEDBACK,
    build_csqe_prompt,
    build_keqe_prompt,
    format_extraction_response,
)
from csqe.index import build_index
from csqe.llm import fixture_key

TOY_DIR = Path(__file__).resolve().parent.parent / "data" / "toy"

# Verbatim key sentences per relevant document, quoted by the mock extractions.
KEY_SENTENCES = {
    "pen01": [
        "A double layer of feathers traps warm air against the skin, and a thick "
        "band of blubber insulates the body core against the polar cold.",
    ],
    "pen02": [
        "Parents balance the chick on their feet inside a brood pouch, a warm fold "
        "of skin that shields it from the antarctic ice.",
    ],
    "aur01": [
        "The northern lights appear when charged particles from the solar wind "
        "collide with oxygen and nitrogen atoms high in the upper atmosphere.",
        "Each collision transfers energy that the atoms release as shimmering "
        "curtains of green and red light.",
    ],
    "aur02": [
        "When the sun ejects plasma toward earth, geomagnetic storms funnel "
        "particles along magnetic field lines toward the poles, which causes the "
        "northern lights to glow brighter and spread farther south.",
    ],
    "tea01": [
        "Green tea is rich in catechins, plant antioxidants that protect cells from damage.",
        "Regular drinking of green tea is linked to lower cholesterol, steadier "
        "blood sugar, and modest benefits for heart health.",
    ],
    "tea02": [
        "A cup of green tea pairs the amino acid theanine with a little caffeine, "
        "a combination that sharpens alertness without jitters, one of several "
        "benefits for mental health.",
    ],
    "bat01": [
        "A lithium ion battery stores energy by pushing lithium ions into the "
        "graphite anode while charging.",
        "During discharge the ions travel back through the electrolyte to the "
        "cathode, and the moving electrons release that energy into the external circuit.",
    ],
    "bat02": [
        "balancing the cells extends how much energy the pack can store and "
        "release over its life.",
    ],
    "sky01": [
        "Shorter blue wavelengths scatter far more strongly than longer red ones, "
        "a process called rayleigh scattering, so on a clear day the sky looks "
        "blue in every direction.",
    ],
    "sky02": [
        "At sunset the light path through the air grows much longer, the blue is "
        "scattered away before it reaches the eye, and the sky near the horizon "
        "turns red and orange.",
    ],
}

# Hypothetical passages served for the KEQE prompt; ordinals 0-1 also feed
# the combined pipeline, 2-4 exist for the standalone 5-sample method.
KEQE_PASSAGES = {
    "t1": [
        "Emperor penguins survive the brutal antarctic winter by huddling together "
        "in vast rotating groups, sharing body heat while dense waterproof feathers "
        "and a thick layer of blubber hold the warmth in.",
        "Penguins in antarctica keep warm through tightly packed huddles, windproof "
        "plumage, and fat reserves that insulate them from freezing air.",
        "Emperor penguins famously migrate to warmer coastal lagoons each winter, "
        "where volcanic vents heat the water.",
        "The emperor penguin relies on countercurrent heat exchange in its flippers "
        "and feet to limit heat loss.",
        "Huddling conserves energy for emperor penguins during the long polar night.",
    ],
    "t2": [
        "The northern lights are caused by charged particles from the sun striking "
        "oxygen and nitrogen in the upper atmosphere, making the gases glow in "
        "green and red curtains.",
        "Auroras appear when the solar wind disturbs the magnetosphere and funnels "
        "electrons toward the poles, where they excite atmospheric gases.",
        "Northern lights are reflections of sunlight off polar ice crystals high "
        "in the stratosphere.",
        "Geomagnetic storms triggered by coronal mass ejections brighten the "
        "aurora and push it to lower latitudes.",
        "The aurora borealis glows where the magnetic field of the earth guides "
        "solar particles into the air.",
    ],
    "t3": [
        "Green tea offers health benefits because its catechin antioxidants "
        "protect cells, support heart health, and steady blood sugar.",
        "Drinking green tea regularly is associated with lower cholesterol, "
        "better focus from theanine, and gentle caffeine.",
        "Green tea cures most infections within a day by raising body temperature.",
        "The antioxidants in green tea may reduce inflammation and support healthy aging.",
        "A daily cup of green tea is linked with modest cardiovascular benefits.",
    ],
    "t4": [
        "A lithium ion battery stores energy chemically by moving lithium ions "
        "into the anode during charging and releases it as the ions return to the "
        "cathode, driving electrons through the circuit.",
        "Lithium ion cells shuttle ions through an electrolyte between electrodes, "
        "storing energy on charge and releasing it on discharge.",
        "Lithium ion batteries store compressed hydrogen gas that burns to release energy.",
        "Battery packs manage voltage per cell so the stored energy can be "
        "released safely.",
        "Charging pushes lithium ions into graphite layers; discharge lets them "
        "flow back and release energy.",
    ],
    "t5": [
        "The sky looks blue because air molecules scatter short blue wavelengths "
        "of sunlight much more strongly than red, a phenomenon called rayleigh scattering.",
        "On a clear day the atmosphere scatters blue light in every direction, so "
        "the dome of the sky appears blue.",
        "The sky is blue because it reflects the color of the oceans below.",
        "Rayleigh scattering strength grows rapidly as wavelength shrinks, "
        "favoring blue and violet light.",
        "At midday the short path of sunlight keeps the scattered blue dominant "
        "across the sky.",
    ],
}


def main() -> int:
    with open(TOY_DIR / "corpus.jsonl", "rb") as fh:
        docs = parse_jsonl_corpus(fh)
    with open(TOY_DIR / "queries.tsv", "rb") as fh:
        queries = parse_queries_tsv(fh)
    with open(TOY_DIR / "qrels.txt", "rb") as fh:
        qrels = parse_qrels(fh)

    by_id = {d.id: d for d in docs}
    for doc_id, sentences in KEY_SENTENCES.items():
        for sentence in sentences:
            assert sentence in by_id[doc_id].text, (
                f"key sentence for {doc_id} is not verbatim in the document: {sentence!r}"
            )

    index = build_index(docs)
    fixtures = {}
    for query in queries:
        first_pass = index.search(query.text, DEFAULT_K_FEEDBACK)
        ranked_ids = [h.doc_id for h in first_pass]
        prompt_docs = [
            truncate_whitespace_tokens(
                index.doc_texts[index.ordinal(doc_id)], DEFAULT_DOC_TOKEN_BUDGET
            )
            for doc_id in ranked_ids
        ]
        grades = qrels.get(query.id, {})
        relevant = [d for d, g in sorted(grades.items()) if g > 0]
        missing = [d for d in relevant if d not in ranked_ids]
        assert not missing, f"{query.id}: relevant docs {missing} not in the first pass"

        sections_all = []
        sections_top = []
        best = max(relevant, key=grades.__getitem__)
        for doc_id in relevant:
            position = ranked_ids.index(doc_id) + 1
            sections_all.append((position, KEY_SENTENCES[doc_id]))
            if doc_id == best:
                sections_top.append((position, KEY_SENTENCES[doc_id]))
        sections_all.sort()
        csqe_prompt = build_csqe_prompt(query.text, prompt_docs)
        fixtures[fixture_key(csqe_prompt, 0)] = format_extraction_response(
            query.text, sections_all
        )
        fixtures[fixture_key(csqe_prompt, 1)] = format_extraction_response(
            query.text, sections_top
        )

        keqe_prompt = build_keqe_prompt(query.text)
        for ordinal, passage in enumerate(KEQE_PASSAGES[query.id]):
            fixtures[fixture_key(keqe_prompt, ordinal)] = passage

    out = TOY_DIR / "fixtures.json"
    out.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fixtures)} fixtures -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
