import pytest

from prmbench.dag import Dag
from prmbench.schema import (
    AttributeDef,
    ClassDef,
    ReferenceSlot,
    RelationalSchema,
)
from prmbench.skeleton import ObjectRef

from helpers import skeleton_from_links

# Movie (0) / User (1) / Vote (2): Vote carries one slot into each of the
# other two classes, mirroring the classic recommender-style exemplar.
MOVIE, USER, VOTE = 0, 1, 2


@pytest.fixture(scope="session")
def movie_schema():
    movie_slot = ReferenceSlot("movie", owner_class=VOTE, referenced_class=MOVIE)
    user_slot = ReferenceSlot("user", owner_class=VOTE, referenced_class=USER)
    classes = (
        ClassDef(
            name="movie",
            primary_key="movieid",
            attributes=(AttributeDef("genre", ("v0", "v1", "v2")),),
        ),
        ClassDef(
            name="user",
            primary_key="userid",
            attributes=(AttributeDef("age", ("v0", "v1")),),
        ),
        ClassDef(
            name="vote",
            primary_key="voteid",
            attributes=(AttributeDef("rating", ("v0", "v1", "v2")),),
            reference_slots=(movie_slot, user_slot),
        ),
    )
    dag = Dag(3, frozenset({(VOTE, MOVIE), (VOTE, USER)}))
    return RelationalSchema(classes, dag)


@pytest.fixture(scope="session")
def movie_skeleton(movie_schema):
    """5 movies, 3 users, 9 votes; user u0 voted movies m0 and m1."""
    movie_slot, user_slot = movie_schema.classes[VOTE].reference_slots
    votes = [
        (0, 0), (1, 0),            # u0 voted m0, m1
        (2, 1), (3, 1), (4, 1),    # u1
        (0, 2), (2, 2), (3, 2),    # u2
        (4, 2),
    ]
    links = {}
    for vid, (mid, uid) in enumerate(votes):
        links[(ObjectRef(VOTE, vid), movie_slot)] = ObjectRef(MOVIE, mid)
        links[(ObjectRef(VOTE, vid), user_slot)] = ObjectRef(USER, uid)
    return skeleton_from_links((5, 3, 9), links)


@pytest.fixture(scope="session")
def movie_slots(movie_schema):
    movie_slot, user_slot = movie_schema.classes[VOTE].reference_slots
    return movie_slot, user_slot


def links_as_plain_table(skeleton):
    """Project a skeleton's links into the oracle's plain-dict format."""
    return {
        (owner.class_index, owner.object_id, slot.name): (
            target.class_index,
            target.object_id,
        )
        for (owner, slot), target in skeleton.links.items()
    }


def build_movie_prm(schema, rating_rows, genre_row=None, age_row=None):
    """PRM over the movie fixture with vote.rating depending on movie.genre."""
    from prmbench.deps import (
        AttributeNode,
        Cpd,
        Dependency,
        DependencyStructure,
        Prm,
        Slot,
        SlotChain,
    )

    movie_slot = schema.classes[VOTE].reference_slots[0]
    dep = Dependency(
        child=AttributeNode(VOTE, 0),
        parent=AttributeNode(MOVIE, 0),
        slot_chain=SlotChain(VOTE, (Slot(movie_slot),)),
    )
    structure = DependencyStructure((dep,), (1, 1, 1), k_max=1)
    genre_row = genre_row or (0.5, 0.3, 0.2)
    age_row = age_row or (0.6, 0.4)
    cpds = (
        Cpd(AttributeNode(MOVIE, 0), (), {(): genre_row}),
        Cpd(AttributeNode(USER, 0), (), {(): age_row}),
        Cpd(
            AttributeNode(VOTE, 0),
            (dep,),
            {(i,): rating_rows[i] for i in range(3)},
        ),
    )
    return Prm(schema, structure, cpds, k_max=1)
