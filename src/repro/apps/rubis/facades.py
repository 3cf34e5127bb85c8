"""RUBiS session façades (the "Session Façade" configuration, §2.2).

"For each type of web page there is a separate servlet which ... invokes
business method(s) on associated stateless session bean(s), that in turn
access related entity EJBs."  Each façade below backs one page family;
the edge-deployment level of each mirrors §4.3/§4.4 (view beans move to
the edge with the read-only replicas, form beans with the query caches,
store beans never).
"""

from __future__ import annotations

from ...middleware.ejb import StatelessSessionBean

__all__ = [
    "BrowseCategoriesBean",
    "BrowseRegionsBean",
    "SearchItemsInCategoryBean",
    "SearchItemsInCategoryRegionBean",
    "ViewItemBean",
    "ViewBidHistoryBean",
    "ViewUserInfoBean",
    "PutBidBean",
    "PutCommentBean",
    "StoreBidBean",
    "StoreCommentBean",
    "Q_ALL_CATEGORIES",
    "Q_ALL_REGIONS",
    "Q_ITEMS_IN_CATEGORY",
    "Q_ITEMS_IN_CATEGORY_REGION",
    "Q_BID_HISTORY",
    "Q_USER_COMMENTS",
]

Q_ALL_CATEGORIES = "rubis.all_categories"
Q_ALL_REGIONS = "rubis.all_regions"
Q_ITEMS_IN_CATEGORY = "rubis.items_in_category"
Q_ITEMS_IN_CATEGORY_REGION = "rubis.items_in_category_region"
Q_BID_HISTORY = "rubis.bid_history"
Q_USER_COMMENTS = "rubis.user_comments"

# Id sequences declared by the application descriptor (see app.py).
BID_IDS = "rubis.bids"
COMMENT_IDS = "rubis.comments"


class _DelegatingFacade(StatelessSessionBean):
    """Shared helper: forward a whole call to the central twin (§4.3)."""

    component_name: str = ""

    def _delegate(self, ctx, method, *args):
        central = yield from ctx.lookup(f"{self.component_name}@central")
        result = yield from central.call(ctx, method, *args)
        return result


def _authenticate(ctx, user_id, password):
    """Shared credential check against the User entity (read path)."""
    user_home = yield from ctx.lookup("User")
    ok = yield from user_home.entity(user_id).call(ctx, "check_password", password)
    return bool(ok)


class BrowseCategoriesBean(_DelegatingFacade):
    component_name = "SB_BrowseCategories"

    def get_all(self, ctx):
        server = ctx.server
        if not server.can_query_locally(Q_ALL_CATEGORIES):
            result = yield from self._delegate(ctx, "get_all")
            return result
        rows = yield from server.cached_query(ctx, Q_ALL_CATEGORIES, ())
        return rows

    def get_for_region(self, ctx, region_id):
        server = ctx.server
        if not server.can_query_locally(Q_ALL_CATEGORIES) or not server.can_query_locally(
            Q_ALL_REGIONS
        ):
            result = yield from self._delegate(ctx, "get_for_region", region_id)
            return result
        # The region header comes from the (cached) regions query rather
        # than a Region entity read: Region has no read-only replica
        # (only Item and User do, §4.3), and entities are local-only (R1).
        regions = yield from server.cached_query(ctx, Q_ALL_REGIONS, ())
        region = next((row for row in regions if row["id"] == region_id), None)
        if region is None:
            raise ValueError(f"unknown region {region_id!r}")
        rows = yield from server.cached_query(ctx, Q_ALL_CATEGORIES, ())
        return {"region": region, "categories": rows}


class BrowseRegionsBean(_DelegatingFacade):
    component_name = "SB_BrowseRegions"

    def get_all(self, ctx):
        server = ctx.server
        if not server.can_query_locally(Q_ALL_REGIONS):
            result = yield from self._delegate(ctx, "get_all")
            return result
        rows = yield from server.cached_query(ctx, Q_ALL_REGIONS, ())
        return rows


class SearchItemsInCategoryBean(_DelegatingFacade):
    component_name = "SB_SearchItemsInCategory"

    def get(self, ctx, category_id):
        server = ctx.server
        if not server.can_query_locally(Q_ITEMS_IN_CATEGORY):
            result = yield from self._delegate(ctx, "get", category_id)
            return result
        rows = yield from server.cached_query(ctx, Q_ITEMS_IN_CATEGORY, (category_id,))
        return rows


class SearchItemsInCategoryRegionBean(_DelegatingFacade):
    component_name = "SB_SearchItemsInCategoryRegion"

    def get(self, ctx, category_id, region_id):
        server = ctx.server
        if not server.can_query_locally(Q_ITEMS_IN_CATEGORY_REGION):
            result = yield from self._delegate(ctx, "get", category_id, region_id)
            return result
        rows = yield from server.cached_query(
            ctx, Q_ITEMS_IN_CATEGORY_REGION, (category_id, region_id)
        )
        return rows


class ViewItemBean(StatelessSessionBean):
    """Item page: pure entity reads — fully replica-servable (§4.3)."""

    def get(self, ctx, item_id):
        item_home = yield from ctx.lookup("RubisItem")
        details = yield from item_home.entity(item_id).call(ctx, "get_details")
        summary = yield from item_home.entity(item_id).call(ctx, "get_bid_summary")
        return {"item": details, "summary": summary}


class ViewBidHistoryBean(_DelegatingFacade):
    component_name = "SB_ViewBidHistory"

    def get(self, ctx, item_id):
        server = ctx.server
        if not server.can_query_locally(Q_BID_HISTORY):
            result = yield from self._delegate(ctx, "get", item_id)
            return result
        rows = yield from server.cached_query(ctx, Q_BID_HISTORY, (item_id,))
        return rows


class ViewUserInfoBean(_DelegatingFacade):
    component_name = "SB_ViewUserInfo"

    def get(self, ctx, user_id):
        server = ctx.server
        if not server.can_query_locally(Q_USER_COMMENTS):
            result = yield from self._delegate(ctx, "get", user_id)
            return result
        user_home = yield from ctx.lookup("User")
        details = yield from user_home.entity(user_id).call(ctx, "get_details")
        comments = yield from server.cached_query(ctx, Q_USER_COMMENTS, (user_id,))
        return {"user": details, "comments": comments}


class PutBidBean(StatelessSessionBean):
    """Put Bid Form: verify credentials, then show the bidding form."""

    def get_form(self, ctx, user_id, password, item_id):
        ok = yield from _authenticate(ctx, user_id, password)
        if not ok:
            return {"authenticated": False}
        item_home = yield from ctx.lookup("RubisItem")
        details = yield from item_home.entity(item_id).call(ctx, "get_details")
        summary = yield from item_home.entity(item_id).call(ctx, "get_bid_summary")
        return {"authenticated": True, "item": details, "summary": summary}


class PutCommentBean(StatelessSessionBean):
    """Put Comment Form: verify credentials, then show the comment form."""

    def get_form(self, ctx, user_id, password, to_user):
        ok = yield from _authenticate(ctx, user_id, password)
        if not ok:
            return {"authenticated": False}
        user_home = yield from ctx.lookup("User")
        target = yield from user_home.entity(to_user).call(ctx, "get_details")
        return {"authenticated": True, "to_user": target}


class StoreBidBean(StatelessSessionBean):
    """The bid write path: one transaction on the main server."""

    def store(self, ctx, user_id, item_id, increment):
        item_home = yield from ctx.server.lookup(ctx, "RubisItem", for_update=True)
        amount = yield from item_home.entity(item_id).call(
            ctx, "register_bid_increment", increment
        )
        bid_home = yield from ctx.lookup("Bid")
        bid_id = ctx.server.application.next_id(BID_IDS)
        yield from bid_home.call(
            ctx,
            "create",
            {
                "id": bid_id,
                "user_id": user_id,
                "item_id": item_id,
                "qty": 1,
                "bid": amount,
                "max_bid": amount,
                "date": ctx.env.now,
            },
        )
        return {"bid_id": bid_id, "amount": amount}


class StoreCommentBean(StatelessSessionBean):
    """The comment write path: insert + rating adjustment."""

    def store(self, ctx, from_user, to_user, item_id, rating, text):
        comment_home = yield from ctx.lookup("Comment")
        comment_id = ctx.server.application.next_id(COMMENT_IDS)
        yield from comment_home.call(
            ctx,
            "create",
            {
                "id": comment_id,
                "from_user": from_user,
                "to_user": to_user,
                "item_id": item_id,
                "rating": rating,
                "date": ctx.env.now,
                "comment": text,
            },
        )
        user_home = yield from ctx.server.lookup(ctx, "User", for_update=True)
        new_rating = yield from user_home.entity(to_user).call(
            ctx, "adjust_rating", rating
        )
        return {"comment_id": comment_id, "rating": new_rating}
